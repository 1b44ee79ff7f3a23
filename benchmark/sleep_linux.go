package main

import (
	"syscall"
	"time"
)

// Go's own timers wake an idle process through epoll_wait, whose timeout is
// whole milliseconds — ten requests' worth at the rates the open-loop
// workload offers — so due times are awaited in nanosleep(2) instead.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}

// Package initialisation runs on the process's first thread, before the
// runtime has started the threads that will run goroutines; they inherit its
// timer slack. Turning the default 50 µs down to 1 µs lets nanosleep return
// when asked. Best effort: a refusal only costs the generator precision,
// which open.gen_late_p99_us reports either way.
func init() {
	const prSetTimerSlack = 29
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
}
