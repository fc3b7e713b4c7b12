package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Host-speed calibration. On a shared two-vCPU VM the same binary runs at
// speeds a factor of 1.6 apart for minutes at a time (ops per CPU-second
// move with ops per wall second, so it is the machine, not stolen time), and
// ten consecutive runs of identical code straddle such a shift more often
// than not. The tcp plane therefore times a fixed kernel right before and
// after everything it measures and reports its wall-clock metrics at
// reference speed: rates divided by, times multiplied by, kernel speed now
// over calibRef. The kernel is the same kind of work the loopback cluster
// does — small messages over loopback TCP, coalesced flushes, goroutine
// hand-offs on two processors — and deliberately touches no code of the
// repository, so no change to the program can move it.

const (
	// calibRef is the kernel's speed on the reference box in its usual
	// state (bench/README.md): at that speed the reported numbers are the
	// measured ones.
	calibRef    = 2.5e6 // echoes per second
	calibSlice  = 400 * time.Millisecond
	calibConns  = 2
	calibWindow = 32
	calibMsg    = 64

	// A set-up is repeated at least setupMinReps times, then until
	// setupMaxReps or setupBudget.
	setupMinReps = 5
	setupMaxReps = 15
	setupBudget  = 2 * time.Second
)

// calibrate runs the kernel for d and returns echoes per second.
func calibrate(d time.Duration) float64 {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0
	}
	defer ln.Close()
	var wg sync.WaitGroup
	var total atomic.Int64
	deadline := time.Now().Add(d)
	for i := 0; i < calibConns; i++ {
		wg.Add(2)
		go func() { // server: echo every message
			defer wg.Done()
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			br, bw := bufio.NewReaderSize(c, 64<<10), bufio.NewWriterSize(c, 64<<10)
			var msg [calibMsg]byte
			for {
				if _, err := io.ReadFull(br, msg[:]); err != nil {
					return
				}
				if _, err := bw.Write(msg[:]); err != nil {
					return
				}
				if br.Buffered() == 0 && bw.Flush() != nil {
					return
				}
			}
		}()
		go func() { // client: calibWindow echoes outstanding
			defer wg.Done()
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return
			}
			defer c.Close()
			br, bw := bufio.NewReaderSize(c, 64<<10), bufio.NewWriterSize(c, 64<<10)
			var msg [calibMsg]byte
			for i := 0; i < calibWindow; i++ {
				bw.Write(msg[:])
			}
			if bw.Flush() != nil {
				return
			}
			n := int64(0)
			for {
				if _, err := io.ReadFull(br, msg[:]); err != nil {
					break
				}
				n++
				if n%256 == 0 && time.Now().After(deadline) {
					break
				}
				if _, err := bw.Write(msg[:]); err != nil {
					break
				}
				if br.Buffered() == 0 && bw.Flush() != nil {
					break
				}
			}
			total.Add(n)
		}()
	}
	start := time.Now()
	wg.Wait()
	return float64(total.Load()) / time.Since(start).Seconds()
}

// cpuRef is calibrateCPU's speed on the reference box in the state that
// gives calibRef.
const cpuRef = 5.8e6 // events per second

// calibrateCPU is the simulator's counterpart of calibrate: a miniature
// event loop on one goroutine (a binary heap of timed events, a map lookup
// and a small allocation per event), the kind of work a simulated run is made
// of and again no code of the repository. It runs events events and returns
// events per second.
func calibrateCPU(events int) float64 {
	type event struct {
		at uint64
		id uint32
	}
	heap := make([]event, 0, 1024)
	push := func(e event) {
		heap = append(heap, e)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p].at <= heap[i].at {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() event {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			c := 2*i + 1
			if c >= last {
				break
			}
			if c+1 < last && heap[c+1].at < heap[c].at {
				c++
			}
			if heap[i].at <= heap[c].at {
				break
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
		return top
	}
	state := make(map[uint32][]byte, 512)
	x := uint64(0x9e3779b97f4a7c15)
	for id := uint32(0); id < 512; id++ {
		push(event{at: uint64(id), id: id})
	}
	t0 := time.Now()
	for n := 0; n < events; n++ {
		e := pop()
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf := state[e.id]
		if len(buf) < 64 {
			buf = append(make([]byte, 0, 64), buf...)
		}
		state[e.id] = append(buf[:len(buf)%64], byte(x))
		push(event{at: e.at + 1 + x%1000, id: e.id})
	}
	return float64(events) / time.Since(t0).Seconds()
}

// hostSpeed is the host's speed relative to the reference for a set-up
// measurement: the geometric mean of both kernels, each taken as the fastest
// of a few short readings. A set-up is a fraction of a second of work, and at
// that scale the interference is bursts that only ever slow a reading down,
// so the fastest reading is the one that says how fast the machine is (over
// 100 rounds of every set-up next to both kernels, fastest set-up times
// fastest kernel kept medians of ten within 10 %, against 30-45 % for the
// median set-up unscaled); neither kernel alone tracked every set-up as well
// as their mean.
func hostSpeed() float64 {
	var echo, cpu float64
	for i := 0; i < 2; i++ {
		echo = math.Max(echo, calibrate(calibSlice/2))
	}
	for i := 0; i < 4; i++ {
		cpu = math.Max(cpu, calibrateCPU(1<<18))
	}
	return math.Sqrt(echo / calibRef * cpu / cpuRef)
}

// fastestWall times fn at least minReps times, then until maxReps or budget
// is spent, and returns the fastest and slowest wall seconds and the count.
func fastestWall(minReps, maxReps int, budget time.Duration, fn func() error) (fastest, slowest float64, n int, err error) {
	start := time.Now()
	for n < minReps || (n < maxReps && time.Since(start) < budget) {
		t0 := time.Now()
		if err = fn(); err != nil {
			return 0, 0, n, err
		}
		s := time.Since(t0).Seconds()
		if n == 0 || s < fastest {
			fastest = s
		}
		slowest = math.Max(slowest, s)
		n++
	}
	return fastest, slowest, n, nil
}

// measureSetup sets setup_s: the fastest of several set-ups, at reference
// host speed.
func measureSetup(out *result, what string, fn func() error) error {
	before := hostSpeed()
	fastest, slowest, n, err := fastestWall(setupMinReps, setupMaxReps, setupBudget, fn)
	if err != nil {
		return err
	}
	h := math.Max(before, hostSpeed())
	out.set("setup_s", "s", fastest*h)
	out.note(fmt.Sprintf("set-up: %s, %d times: %.4f..%.4f s measured, host speed %.2f of reference", what, n, fastest, slowest, h))
	return nil
}
