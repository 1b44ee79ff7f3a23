//go:build !linux

package main

import "time"

// preciseSleep falls back to the runtime's timers where nanosleep(2) is not
// available; the reference numbers are Linux numbers.
func preciseSleep(d time.Duration) { time.Sleep(d) }
