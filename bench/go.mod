module pigpaxos/bench

go 1.24

require pigpaxos v0.0.0

replace pigpaxos => ../
