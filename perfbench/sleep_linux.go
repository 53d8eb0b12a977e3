package main

import (
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// sleepUntil returns at t. An idle Go process waits for its next timer in
// epoll with a whole-millisecond timeout, so time.Sleep can return up to
// 1ms late, which would swamp the sub-millisecond latencies the open
// loop measures from each job's due time. The last millisecond is slept
// in nanosleep instead, which blocks only this thread, at the kernel
// timer's precision.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	if d := time.Until(t); d > 0 {
		// Timer slack lets the kernel defer a wake-up by 50µs by
		// default; this thread's sleeps are the schedule, so it asks
		// for none.
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
		ts := syscall.NsecToTimespec(int64(d))
		// A signal interrupts the sleep; sleep the rest. Any other
		// error returns early, and the job is sent early, never late.
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
}
