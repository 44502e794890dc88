//go:build !linux

package main

import "time"

// pacer waits for due times. Without a timerfd it sleeps and spins (see
// spinWait).
type pacer struct{}

func newPacer() *pacer { return &pacer{} }

func (p *pacer) waitUntil(due time.Time) time.Time {
	for {
		now := time.Now()
		d := due.Sub(now)
		if d <= 0 {
			return now
		}
		spinWait(d)
	}
}

func (p *pacer) close() {}
