package obs

import (
	"strings"
	"testing"
)

func TestLabeled(t *testing.T) {
	if got := Labeled("x_total"); got != "x_total" {
		t.Fatalf("unlabeled: got %q", got)
	}
	if got := Labeled("x_total", "kind", "arrival"); got != `x_total{kind="arrival"}` {
		t.Fatalf("one label: got %q", got)
	}
	if got := Labeled("x", "a", "1", "b", "2"); got != `x{a="1",b="2"}` {
		t.Fatalf("two labels: got %q", got)
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("runs_total", "runs")
	c1.Inc()
	c2 := reg.Counter("runs_total", "runs")
	c2.Add(2)
	if got := c1.Value(); got != 3 {
		t.Fatalf("handles to the same series must share state, got %v", got)
	}
}

func TestTypeConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	reg.Gauge("x_total", "")
}

func TestCounterDecreasesPanics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("negative counter increment must panic")
		}
	}()
	c.Add(-1)
}

func TestSummaryStats(t *testing.T) {
	reg := NewRegistry()
	s := reg.Summary("obs", "")
	for _, v := range []float64{1, 2, 3, 4} {
		s.Observe(v)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); !strings.Contains(got, "obs_sum 10\nobs_count 4\n") {
		t.Fatalf("summary exposition %q, want sum 10 and count 4", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(Labeled("ev_total", "kind", "a"), "events").Add(2)
	reg.Counter(Labeled("ev_total", "kind", "b"), "events") // stays 0
	reg.Gauge("temp", "").Set(-1.5)
	s := reg.Summary("lat", "latency")
	s.Observe(1)
	s.Observe(3)
	h := reg.Histogram("lvl", "levels", 0, 4, 2)
	h.Observe(0.5)
	h.Observe(3.5)
	h.Observe(9) // clamps into the top bucket

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP ev_total events
# TYPE ev_total counter
ev_total{kind="a"} 2
ev_total{kind="b"} 0
# TYPE temp gauge
temp -1.5
# HELP lat latency
# TYPE lat summary
lat_sum 4
lat_count 2
# HELP lvl levels
# TYPE lvl histogram
lvl_bucket{le="2"} 1
lvl_bucket{le="4"} 3
lvl_bucket{le="+Inf"} 3
lvl_sum 13
lvl_count 3
`
	if got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestMetricsProbe(t *testing.T) {
	reg := NewRegistry()
	p := NewMetricsProbe(reg)

	p.OnEvent(Event{Kind: KindArrival})
	p.OnEvent(Event{Kind: KindArrival})
	p.OnEvent(Event{Kind: KindMiss})
	p.OnEvent(Event{Kind: EventKind("bogus")}) // ignored, not counted

	p.OnDecision(DecisionRecord{Reason: ReasonIdleRecharge, Level: -1, Slack: 10})
	p.OnDecision(DecisionRecord{Reason: ReasonStretchSlackRich, Level: 2, Speed: 0.6, Slack: 4})

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`eadvfs_events_total{kind="arrival"} 2`,
		`eadvfs_events_total{kind="miss"} 1`,
		`eadvfs_events_total{kind="stall"} 0`, // pre-registered, quiet run
		`eadvfs_decisions_total{reason="idle:recharge"} 1`,
		`eadvfs_decisions_total{reason="stretch:slack-rich"} 1`,
		`eadvfs_decisions_total{reason="full-speed:infeasible"} 0`,
		`eadvfs_decision_slack_count 2`,
		`eadvfs_decision_level_count 1`, // idle decisions stay out of the level histogram
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
