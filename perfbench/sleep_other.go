//go:build !linux

package main

import "time"

// sleepUntil returns at t, within the runtime timer's precision.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
