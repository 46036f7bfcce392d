package main

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a Linux CPU affinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func getAffinity(tid int) (cpuMask, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return m, nil
}

func setAffinity(tid int, m cpuMask) error {
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return fmt.Errorf("sched_setaffinity: %w", e)
	}
	return nil
}

// setProcessAffinity applies m to every thread of this process. Threads
// started later inherit the mask of the thread that starts them, and so
// do child processes.
func setProcessAffinity(m cpuMask) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, m); err != nil && !errors.Is(err, syscall.ESRCH) {
			return err // ESRCH: the thread exited meanwhile
		}
	}
	return nil
}

// pinToOneCPU confines this process, and every process it starts until
// restore is called, to one of the CPUs it may run on: the k-th, counting
// round, so that successive values of k take turns over them. It
// returns that CPU.
func pinToOneCPU(k int) (cpu int, restore func(), err error) {
	orig, err := getAffinity(0)
	if err != nil {
		return 0, nil, err
	}
	var allowed []int
	for i := 0; i < len(orig)*64; i++ {
		if orig[i/64]&(1<<(i%64)) != 0 {
			allowed = append(allowed, i)
		}
	}
	if len(allowed) == 0 {
		return 0, nil, fmt.Errorf("empty CPU affinity mask")
	}
	cpu = allowed[k%len(allowed)]
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	if err := setProcessAffinity(one); err != nil {
		return 0, nil, err
	}
	// Widening the mask back to what it was cannot fail for want of CPUs.
	return cpu, func() { _ = setProcessAffinity(orig) }, nil
}
