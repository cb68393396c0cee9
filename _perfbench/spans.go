package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ssdfail/internal/faultfs"
)

// span is one timed call across a layer boundary. Spans of one request
// share an ancestry through Parent; I/O spans have no parent because the
// WAL's writer and syncer run outside any request.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log's epoch
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps the spans of a traced pass in memory; they are written
// out once, after the run.
type spanLog struct {
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) newID() uint64 { return l.next.Add(1) }

func (l *spanLog) at(t time.Time) int64 { return int64(t.Sub(l.epoch)) }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// reset drops every span recorded so far.
func (l *spanLog) reset() {
	l.mu.Lock()
	l.spans = l.spans[:0]
	l.mu.Unlock()
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

// tracedHandler records a span around every request h serves, parented
// to the span ID the caller sent in spanHeader, and hands its own ID to
// h through the request context so outgoing legs can name it.
func tracedHandler(l *spanLog, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		id := l.newID()
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		l.add(span{ID: id, Parent: parent, Name: name, Start: l.at(start), End: l.at(time.Now())})
	})
}

// tracedTransport records a span per round trip, from sending the
// request until the caller closes the response body, parented to the
// handler span in the request context.
type tracedTransport struct {
	l    *spanLog
	name string
	base http.RoundTripper
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, _ := req.Context().Value(spanKey{}).(uint64)
	id := t.l.newID()
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	start := time.Now()
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		t.l.add(span{ID: id, Parent: parent, Name: t.name, Start: t.l.at(start), End: t.l.at(time.Now())})
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		t.l.add(span{ID: id, Parent: parent, Name: t.name, Start: t.l.at(start), End: t.l.at(time.Now())})
	}}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// tracedFS wraps the journal's filesystem and records a span for every
// write and fsync of a WAL segment or a store snapshot.
type tracedFS struct {
	faultfs.FS
	l *spanLog
}

// walFileKind names the WAL files the journal writes: segments are
// wal-<lsn>.seg, snapshots are written to snapshot.tmp and renamed.
func walFileKind(name string) string {
	base := filepath.Base(name)
	switch {
	case strings.HasPrefix(base, "wal-") && strings.HasSuffix(base, ".seg"):
		return "wal.segment"
	case strings.HasPrefix(base, "snapshot"):
		return "wal.snapshot"
	}
	return ""
}

func (f tracedFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	kind := walFileKind(name)
	if kind == "" {
		return file, nil
	}
	return &tracedFile{File: file, l: f.l, kind: kind}, nil
}

type tracedFile struct {
	faultfs.File
	l    *spanLog
	kind string
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.l.add(span{ID: f.l.newID(), Name: f.kind + ".write", Start: f.l.at(start), End: f.l.at(time.Now()), Bytes: int64(n)})
	return n, err
}

func (f *tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.l.add(span{ID: f.l.newID(), Name: f.kind + ".fsync", Start: f.l.at(start), End: f.l.at(time.Now())})
	return err
}
