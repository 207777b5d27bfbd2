package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// pinnedEnv marks a process that pinToOneCPU has already re-executed. It
// is how the second image knows not to do it again, nothing else.
const pinnedEnv = "BENCH_PINNED"

// pinToOneCPU narrows the process to the highest-numbered CPU it may run
// on and re-executes it, so that every thread of the new image, the Go
// runtime's included, starts on that CPU and GOMAXPROCS comes out as 1.
//
// On the two-vCPU boxes this benchmark is gated on, how much of the second
// vCPU a two-goroutine stage gets differs from run to run: in ten
// alternated pairs of runs the quartile spread of scan_to_volume_s was 17 %
// and 22 % (full and small size) on two CPUs against 8 % on one, at the
// same spread everywhere else. On one CPU a timing is the CPU work along
// the operation's path, which repeats. What a second core buys is therefore
// in no figure this benchmark reports. It only returns if pinning was not
// possible.
func pinToOneCPU() error {
	if os.Getenv(pinnedEnv) != "" {
		return nil
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var mask [16]uint64 // room for 1024 CPUs
	size := unsafe.Sizeof(mask)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for i := range mask {
		for bit := 0; bit < 64; bit++ {
			if mask[i]&(1<<bit) != 0 {
				cpu = 64*i + bit
			}
		}
	}
	if cpu < 0 {
		return fmt.Errorf("sched_getaffinity: empty mask")
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(self, os.Args, append(os.Environ(), pinnedEnv+"=1"))
}

// cpuTime is the user plus system CPU time the process has consumed.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports it in
// KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// usage is what a stretch of the run cost the Go runtime.
type usage struct {
	mallocs  float64
	allocMB  float64
	gcPauseM float64 // total stop-the-world pause, ms
}

// measure runs fn and returns the allocation and GC-pause deltas across it.
func measure(fn func()) usage {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return usage{
		mallocs:  float64(b.Mallocs - a.Mallocs),
		allocMB:  float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20),
		gcPauseM: float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6,
	}
}
