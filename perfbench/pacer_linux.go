package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer waits for due times without oversleeping and without holding a
// processor. time.Sleep cannot do this on Linux: the runtime's poller
// waits in whole milliseconds, so a sub-millisecond sleep returns up to
// a millisecond late, and spinning instead takes a core away from the
// server on a two-core box. A timerfd registered with the runtime's
// poller parks the goroutine and wakes it within microseconds.
type pacer struct {
	fd  uintptr
	f   *os.File
	buf [8]byte
}

type itimerspec struct {
	interval, value syscall.Timespec
}

// newPacer opens the timer; when the kernel refuses, the pacer falls
// back to sleeping and spinning (see wait).
func newPacer() *pacer {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return &pacer{}
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}
}

// waitUntil returns at or just after due, and the time it returned.
func (p *pacer) waitUntil(due time.Time) time.Time {
	for {
		now := time.Now()
		d := due.Sub(now)
		if d <= 0 {
			return now
		}
		if p.f == nil || d < 2*time.Microsecond {
			spinWait(d)
			continue
		}
		spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
		if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
			spinWait(d)
			continue
		}
		if _, err := p.f.Read(p.buf[:]); err != nil {
			spinWait(d)
		}
	}
}

func (p *pacer) close() {
	if p.f != nil {
		p.f.Close()
	}
}
