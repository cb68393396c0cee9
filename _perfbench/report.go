package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"text/tabwriter"
)

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is one line of the human-readable table.
type row struct {
	name    string
	value   float64
	unit    string
	samples int
	note    string
}

// report is one run's result.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	rows       []row
	violations []string
	warnings   []string
	notes      []string
	env        envRecord
}

func newReport() *report { return &report{Metrics: make(map[string]metricValue)} }

func (r *report) set(name string, v float64, unit string, samples int, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.violations = append(r.violations, fmt.Sprintf("%s has no valid value (%v from %d samples)", name, v, samples))
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
	r.rows = append(r.rows, row{name, v, unit, samples, note})
}

// setTiming reports a latency percentile with its sample count. A
// percentile the count does not support is still reported, with a
// warning naming the highest one it does.
func (r *report) setTiming(name string, t timing) {
	note := fmt.Sprintf("p%g of %d requests, timed from their due time", t.P, t.Samples)
	if len(t.PerWindow) > 0 {
		note += fmt.Sprintf(", in the %d of %d windows of the run with the lowest median", len(t.Kept), len(t.PerWindow))
		var b strings.Builder
		for i, v := range t.PerWindow {
			fmt.Fprintf(&b, " %.3f", v)
			if !slices.Contains(t.Kept, i) {
				b.WriteString(" (set aside)")
			}
		}
		r.notes = append(r.notes, fmt.Sprintf("%s by window (ms):%s", name, b.String()))
	}
	if !t.Supported {
		best, ok := highestSupported(t.Samples)
		w := fmt.Sprintf("%s: %d samples leave fewer than %d beyond p%g", name, t.Samples, minBeyond, t.P)
		if ok {
			w += fmt.Sprintf(" (p%g is the highest supported)", best)
		}
		r.warnings = append(r.warnings, w)
		note += "; UNSUPPORTED"
	}
	r.set(name, t.Value, "ms", t.Samples, note)
}

// envRecord is the environment and configuration every result is
// recorded with.
type envRecord struct {
	Workload       string   `json:"workload"`
	Trace          bool     `json:"trace"`
	Seed           uint64   `json:"seed"`
	Seconds        float64  `json:"seconds"`
	Scale          float64  `json:"scale"`
	ScheduleSHA256 string   `json:"schedule_sha256"`
	Drives         int      `json:"drives"`
	Records        int      `json:"records"`
	Requests       int      `json:"requests"`
	NumCPU         int      `json:"num_cpu"`
	GOMAXPROCS     int      `json:"gomaxprocs"`
	GoVersion      string   `json:"go_version"`
	WALFilesystem  string   `json:"wal_filesystem"`
	DaemonFlags    []string `json:"daemon_flags"`
	FlushPolicy    string   `json:"flush_policy"`
	Topology       string   `json:"topology"`
	Connections    int      `json:"generator_connections"`
	DaemonNice     int      `json:"daemon_nice"`
}

// flushPolicy states the WAL policy at the daemon's defaults and what a
// 202 means under it.
const flushPolicy = "WAL on at the daemon defaults: fsync every 64 appends or 100 ms, store snapshot every 4096 records; " +
	"group commit, so a 202 is sent before the fsync that covers its records"

func newEnv(o *options, in *inputs) envRecord {
	topo := "one ssdserved"
	if in.routed {
		topo = "ssdrouter over ssdserved nodes a and b, follower f replicating a"
	}
	if o.trace {
		topo += ", hosted in the benchmark process"
	}
	nice := daemonNice
	if o.trace {
		nice = 0
	}
	return envRecord{
		Workload:       in.name,
		Trace:          o.trace,
		Seed:           o.seed,
		Seconds:        o.seconds,
		Scale:          o.scale,
		ScheduleSHA256: in.sched.Hash,
		Drives:         len(in.sched.Drives),
		Records:        in.sched.TotalRecords,
		Requests:       in.sched.TotalRequests,
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		WALFilesystem:  filesystemOf(o.work),
		DaemonFlags:    daemonFlags("<model>", "<wal-dir>"),
		FlushPolicy:    flushPolicy,
		Topology:       topo,
		Connections:    maxConns,
		DaemonNice:     nice,
	}
}

// write writes the table, the environment, any failures, and — last —
// the result line.
func (r *report) write(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "metric\tvalue\tunit\tsamples\tnote\n")
	for _, x := range r.rows {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\t%s\n", x.name, x.value, x.unit, x.samples, x.note)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, s := range r.notes {
		fmt.Fprintf(w, "%s\n", s)
	}
	for _, s := range r.warnings {
		fmt.Fprintf(w, "warning: %s\n", s)
	}
	env, err := json.Marshal(map[string]envRecord{"env": r.env})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", env)
	for _, v := range r.violations {
		fmt.Fprintf(w, "FAIL: %s\n", v)
	}
	out := *r
	if !r.Correct {
		// A failed run's numbers are not to be used.
		out.Metrics = map[string]metricValue{}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
