package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans are recorded from the benchmark's own files only: the program is
// not instrumented.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
}

// recorder keeps every span in memory until the run ends.
type recorder struct {
	run   string
	t0    time.Time
	spans []span
}

func newRecorder(run string) *recorder { return &recorder{run: run, t0: time.Now()} }

// start opens a span under parent (0 for a root) and returns its ID.
func (rc *recorder) start(name string, parent int) int {
	rc.spans = append(rc.spans, span{ID: len(rc.spans) + 1, Parent: parent, Run: rc.run, Name: name,
		Start: int64(time.Since(rc.t0))})
	return len(rc.spans)
}

// end closes span id and returns its duration.
func (rc *recorder) end(id int) time.Duration {
	s := &rc.spans[id-1]
	s.End = int64(time.Since(rc.t0))
	return time.Duration(s.End - s.Start)
}

// timed runs f inside a span and returns its duration.
func (rc *recorder) timed(name string, parent int, f func()) time.Duration {
	id := rc.start(name, parent)
	f()
	return rc.end(id)
}

// durations lists the durations of every closed span with the given
// name, in milliseconds, in recording order.
func (rc *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range rc.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write stores the spans as JSON lines in dir and returns the file path.
func (rc *recorder) write(dir string) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("spans-%s.jsonl", rc.run))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range rc.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
