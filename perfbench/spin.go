package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// A guest vCPU with nothing to run halts, and the hypervisor must
// schedule it again before it can take the next wake-up. On a busy host
// that delay lands on every cross-process hop of a loopback request and
// dominated the serving latencies this benchmark was calibrated on (the
// hypervisor stole more CPU time than the workload used). The serving
// workloads therefore keep every CPU busy with a SCHED_IDLE spinner
// process: the kernel runs it only when nothing else wants the CPU and
// preempts it at once on any wake-up, so the program under test loses no
// CPU to it, and no vCPU halts mid-measurement.

// schedIdle is Linux's SCHED_IDLE scheduling policy.
const schedIdle = 5

// spinMain is the body of `perfbench --spin`: one busy loop per CPU, each
// on its own OS thread at SCHED_IDLE. It runs until killed.
func spinMain(nproc int) int {
	runtime.GOMAXPROCS(nproc)
	errs := make(chan error, nproc)
	for i := 0; i < nproc; i++ {
		go func() {
			runtime.LockOSThread()
			var param struct{ priority int32 }
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle,
				uintptr(unsafe.Pointer(&param))); e != 0 {
				errs <- fmt.Errorf("sched_setscheduler(SCHED_IDLE): %w", e)
				return
			}
			for x := uint64(0); ; x++ {
				spinSink = x
			}
		}()
	}
	err := <-errs
	fmt.Fprintln(os.Stderr, "perfbench --spin:", err)
	return 1
}

// spinSink keeps the busy loop from being optimised away.
var spinSink uint64

// startSpinner launches `perfbench --spin` through procs, so it is stopped
// with everything else.
func startSpinner(procs *procSet, nproc int, logPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	_, err = procs.start("spinner", self, []string{"--spin"}, logPath, nproc, "")
	return err
}
