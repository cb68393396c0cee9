package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// binDir holds ssdserved and ssdrouter built from the tree under test.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "ssdfail/cmd/ssdserved", "ssdfail/cmd/ssdrouter")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building daemons:", err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkSpec is the metric list of BENCHMARK.json.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

// The smallest fleet that still exercises every layer; ingest_json
// needs a few hundred batches for its probes to include watchlists.
const smokeScale = 0.005

func smokeScaleOf(name string) float64 {
	if name == wIngestJSON {
		return 0.1
	}
	return smokeScale
}

// Every workload runs end to end at a tiny scale, traced and untraced,
// passes its correctness checks, and reports exactly the metrics
// BENCHMARK.json lists, with their units.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, perfbench has %v", names, workloadNames)
	}
	work := t.TempDir()
	for _, name := range append(workloadNames, wRoutedBin) {
		for _, tr := range []string{"0", "1"} {
			t.Run(name+"/trace"+tr, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := realMain([]string{"--workload", name, "--seed", "3", "--seconds", "1", "--trace", tr,
					"--scale", fmt.Sprint(smokeScaleOf(name)), "--bin", binDir, "--work", work}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   bool                   `json:"correct"`
					Attempted int                    `json:"attempted"`
					Failed    int                    `json:"failed"`
					Metrics   map[string]metricValue `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v", res)
				}
				want := spec.EndToEnd
				if tr == "1" {
					want = spec.PerLayer
				}
				extra := 0
				if name == wRoutedBin && tr == "1" {
					extra = 4 // the cluster layers
					for _, m := range []string{"cluster.router.self_us_per_req", "cluster.router.legs_per_req",
						"cluster.follower.apply_ns_per_rec", "cluster.follower.lag_rec_p50"} {
						if v, ok := res.Metrics[m]; !ok || v.Value <= 0 {
							t.Errorf("cluster metric %s = %+v, want a positive value", m, v)
						}
					}
				}
				if len(res.Metrics) != len(want)+extra {
					t.Errorf("%d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// A pass that loses records must fail its check.
func TestConformanceGateCatchesLostBatch(t *testing.T) {
	work := t.TempDir()
	o := &options{workload: wIngestBin, seed: 3, seconds: 0.1, bin: binDir, work: work, scale: smokeScale}
	model, err := ensureModel(filepath.Join(work, "model"))
	if err != nil {
		t.Fatal(err)
	}
	in, err := buildInputs(o.workload, o.seed, o.scale, o.seconds, model)
	if err != nil {
		t.Fatal(err)
	}
	ops := in.lanes[0].Ops
	in.lanes[0].Ops = ops[:len(ops)-1]
	rep := newReport()
	if err := runUntraced(context.Background(), o, in, rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.violations) == 0 {
		t.Fatal("a run missing its last batch passed the conformance check")
	}
}

// The watchlist check compares with an offline rescoring of what was
// sent: a daemon that missed the trickle must fail it.
func TestWatchlistGateCatchesStaleFleet(t *testing.T) {
	work := t.TempDir()
	model, err := ensureModel(filepath.Join(work, "model"))
	if err != nil {
		t.Fatal(err)
	}
	in, err := buildInputs(wWatchlistMixed, 3, smokeScale, 1, model)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	h, err := host(ctx, in, filepath.Join(work, "d"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	c := newClient(h.topo.front, nil)
	defer c.close()
	if out := c.runLanes(ctx, []lane{{Ops: in.preload}}); out.Accepted == 0 || out.Dropped != 0 {
		t.Fatalf("preload: accepted %d, dropped %d", out.Accepted, out.Dropped)
	}
	preloaded, err := groundTruth(in.preload)
	if err != nil {
		t.Fatal(err)
	}
	if v := checkWatchlist(ctx, c, in, preloaded); len(v) != 0 {
		t.Fatalf("watchlist after the preload differs from its rescoring: %v", v)
	}
	all, err := groundTruth(in.sentIngestOps())
	if err != nil {
		t.Fatal(err)
	}
	if v := checkWatchlist(ctx, c, in, all); len(v) == 0 {
		t.Fatal("a watchlist missing the trickle matched the rescoring of everything sent")
	}
}
