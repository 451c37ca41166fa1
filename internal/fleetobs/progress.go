package fleetobs

import (
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Progress renders a single-line live view of one run to a terminal
// writer, redrawn in place with carriage returns:
//
//	sweep-handover 7/12 units · 7 rows · 1 failed · 3.1 rows/s · ETA 0:05
//
// It reads the same RunState the HTTP server serves, so the terminal and
// API views can never disagree.
type Progress struct {
	state    *RunState
	w        io.Writer
	interval time.Duration

	once  sync.Once
	stop  chan struct{}
	done  chan struct{}
	width int // widest line drawn, for trailing-space erasure
}

// NewProgress returns a renderer for st writing to w (normally stderr).
func NewProgress(st *RunState, w io.Writer) *Progress {
	return &Progress{
		state: st, w: w, interval: 250 * time.Millisecond,
		stop: make(chan struct{}), done: make(chan struct{}),
	}
}

// Start begins redrawing in a background goroutine.
func (p *Progress) Start() {
	go func() {
		defer close(p.done)
		t := time.NewTicker(p.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				p.draw()
			case <-p.stop:
				return
			}
		}
	}()
}

// Stop halts redrawing, draws the final state once, and terminates the
// line with a newline so subsequent output starts clean.
func (p *Progress) Stop() {
	p.once.Do(func() { close(p.stop) })
	<-p.done
	p.draw()
	io.WriteString(p.w, "\n")
}

// draw renders one frame.
func (p *Progress) draw() {
	completed, total, rows, failed, rate, eta, state := p.state.progressLine(time.Now())
	var b strings.Builder
	b.WriteByte('\r')
	b.WriteString(p.state.ID())
	b.WriteByte(' ')
	b.WriteString(strconv.Itoa(completed))
	b.WriteByte('/')
	b.WriteString(strconv.Itoa(total))
	b.WriteString(" units · ")
	b.WriteString(strconv.FormatInt(rows, 10))
	b.WriteString(" rows")
	if failed > 0 {
		b.WriteString(" · ")
		b.WriteString(strconv.FormatInt(failed, 10))
		b.WriteString(" failed")
	}
	if rate > 0 {
		b.WriteString(" · ")
		b.WriteString(strconv.FormatFloat(rate, 'f', 1, 64))
		b.WriteString(" rows/s")
	}
	if eta > 0 {
		b.WriteString(" · ETA ")
		b.WriteString(formatETA(eta))
	}
	if state != RunRunning && state != RunPending {
		b.WriteString(" · ")
		b.WriteString(state)
	}
	line := b.String()
	if pad := p.width - (len(line) - 1); pad > 0 {
		line += strings.Repeat(" ", pad)
	} else {
		p.width = len(line) - 1
	}
	io.WriteString(p.w, line)
}

// formatETA renders seconds as m:ss (or h:mm:ss beyond an hour).
func formatETA(sec float64) string {
	s := int64(sec + 0.5)
	if s < 0 {
		s = 0
	}
	h, m := s/3600, (s%3600)/60
	ss := s % 60
	var b strings.Builder
	if h > 0 {
		b.WriteString(strconv.FormatInt(h, 10))
		b.WriteByte(':')
		if m < 10 {
			b.WriteByte('0')
		}
	}
	b.WriteString(strconv.FormatInt(m, 10))
	b.WriteByte(':')
	if ss < 10 {
		b.WriteByte('0')
	}
	b.WriteString(strconv.FormatInt(ss, 10))
	return b.String()
}
