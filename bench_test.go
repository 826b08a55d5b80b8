package wasp_test

// One benchmark per table and figure of the paper's evaluation (§8). Each
// benchmark executes the corresponding experiment end-to-end on the
// emulated wide-area testbed at the paper's full durations and logs the
// regenerated rows/series. Run them with:
//
//	go test -bench=. -benchmem
//
// The benchmarks also report headline metrics (processed percentage,
// overheads) via b.ReportMetric so regressions are machine-checkable.

import (
	"sync"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/adapt"
	"github.com/wasp-stream/wasp/internal/experiment"
	"github.com/wasp-stream/wasp/internal/queries"
	"github.com/wasp-stream/wasp/internal/stream"
	"github.com/wasp-stream/wasp/internal/workload"
)

const benchSeed = 1

func BenchmarkFig2BandwidthVariability(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiment.Fig2(42)
	}
	b.Log("\n" + out)
}

func BenchmarkFig7TopologyCDF(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiment.Fig7(benchSeed)
	}
	b.Log("\n" + out)
}

func BenchmarkTable2TechniqueComparison(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiment.Table2()
	}
	b.Log("\n" + out)
}

func BenchmarkTable3QueryDetails(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiment.Table3()
	}
	b.Log("\n" + out)
}

// fig8Runs caches the Figure 8/9 experiment within one bench invocation
// (both figures come from the same runs, as in the paper): the sync.Once
// executes the grid exactly once however many benchmarks — or b.N
// iterations — ask for it.
var (
	fig8Once  sync.Once
	fig8Cache []experiment.Fig8Run
	fig8Err   error
)

func fig8Runs(b *testing.B) []experiment.Fig8Run {
	b.Helper()
	fig8Once.Do(func() {
		fig8Cache, fig8Err = experiment.RunFig8(benchSeed, 0)
	})
	if fig8Err != nil {
		b.Fatal(fig8Err)
	}
	return fig8Cache
}

func BenchmarkFig8DelayUnderDynamics(b *testing.B) {
	var runs []experiment.Fig8Run
	for i := 0; i < b.N; i++ {
		runs = fig8Runs(b)
	}
	b.Log("\n" + experiment.FormatFig8(runs, 0))
	for _, r := range runs {
		if r.Query == "topk" && r.Policy == adapt.PolicyWASP {
			b.ReportMetric(r.Result.ProcessedPct, "wasp_processed_%")
		}
	}
}

func BenchmarkFig9ProcessingRatio(b *testing.B) {
	var runs []experiment.Fig8Run
	for i := 0; i < b.N; i++ {
		runs = fig8Runs(b)
	}
	b.Log("\n" + experiment.FormatFig9(runs, 0))
	for _, r := range runs {
		if r.Query == "topk" && r.Policy == adapt.PolicyDegrade {
			b.ReportMetric(r.Result.ProcessedPct, "degrade_processed_%")
		}
	}
}

func BenchmarkFig10TechniqueComparison(b *testing.B) {
	var runs []experiment.PolicyRun
	for i := 0; i < b.N; i++ {
		var err error
		runs, err = experiment.RunFig10(benchSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + experiment.FormatFig10(runs, 0))
	for _, r := range runs {
		if r.Policy == adapt.PolicyScale {
			b.ReportMetric(experiment.Mean(r.Result.Samples), "scale_mean_delay_s")
		}
		if r.Policy == adapt.PolicyNone {
			b.ReportMetric(experiment.Mean(r.Result.Samples), "noadapt_mean_delay_s")
		}
	}
}

// fig11Runs caches the live-environment runs (Figures 11 and 12 share
// them), memoized the same way as fig8Runs.
var (
	fig11Once  sync.Once
	fig11Cache []experiment.PolicyRun
	fig11Err   error
)

func fig11Runs(b *testing.B) []experiment.PolicyRun {
	b.Helper()
	fig11Once.Do(func() {
		fig11Cache, fig11Err = experiment.RunFig11(benchSeed, 0)
	})
	if fig11Err != nil {
		b.Fatal(fig11Err)
	}
	return fig11Cache
}

func BenchmarkFig11LiveEnvironment(b *testing.B) {
	var runs []experiment.PolicyRun
	for i := 0; i < b.N; i++ {
		runs = fig11Runs(b)
	}
	b.Log("\n" + experiment.FormatFig11(runs, 0))
}

func BenchmarkFig12QualityTradeoff(b *testing.B) {
	var runs []experiment.PolicyRun
	for i := 0; i < b.N; i++ {
		runs = fig11Runs(b)
	}
	b.Log("\n" + experiment.FormatFig12(runs))
	for _, r := range runs {
		switch r.Policy {
		case adapt.PolicyWASP:
			b.ReportMetric(r.Result.ProcessedPct, "wasp_processed_%")
		case adapt.PolicyDegrade:
			b.ReportMetric(r.Result.ProcessedPct, "degrade_processed_%")
		}
	}
}

func BenchmarkFig13StateMigration(b *testing.B) {
	var runs []experiment.Fig13Run
	for i := 0; i < b.N; i++ {
		var err error
		runs, err = experiment.RunFig13(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + experiment.FormatFig13(runs))
	for _, r := range runs {
		if r.Strategy == experiment.MigrateNetworkAware {
			b.ReportMetric(r.Overhead.Total().Seconds(), "wasp_overhead_s")
		}
		if r.Strategy == experiment.MigrateDistant {
			b.ReportMetric(r.Overhead.Total().Seconds(), "distant_overhead_s")
		}
	}
}

func BenchmarkFig14StatePartitioning(b *testing.B) {
	var runs []experiment.Fig14Run
	for i := 0; i < b.N; i++ {
		var err error
		runs, err = experiment.RunFig14(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + experiment.FormatFig14(runs))
	for _, r := range runs {
		if r.StateMB == 512 {
			name := "default_512MB_overhead_s"
			if r.Partitioned {
				name = "partitioned_512MB_overhead_s"
			}
			b.ReportMetric(r.Overhead.Total().Seconds(), name)
		}
	}
}

// BenchmarkExtStragglerRecovery runs the straggler extension: a slow node
// under the Top-K query, WASP vs No Adapt.
func BenchmarkExtStragglerRecovery(b *testing.B) {
	var runs []experiment.StragglerRun
	for i := 0; i < b.N; i++ {
		var err error
		runs, err = experiment.RunStraggler(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + experiment.FormatStraggler(runs))
}

// BenchmarkAblationAlpha sweeps the α bandwidth-headroom threshold (§4.1).
func BenchmarkAblationAlpha(b *testing.B) {
	var rows []experiment.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.RunAlphaAblation(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + experiment.FormatAblation("Ablation: bandwidth headroom α", rows))
}

// BenchmarkAblationMonitorInterval sweeps the adaptation period (§8.2).
func BenchmarkAblationMonitorInterval(b *testing.B) {
	var rows []experiment.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.RunMonitorIntervalAblation(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + experiment.FormatAblation("Ablation: monitoring interval", rows))
}

// BenchmarkEngineTick measures the raw flow-mode engine throughput (ticks
// per second of a deployed Top-K pipeline) — the substrate cost underlying
// every experiment above.
func BenchmarkEngineTick(b *testing.B) {
	res, err := experiment.Run(experiment.Scenario{
		Name:     "bench-engine",
		Seed:     benchSeed,
		Duration: time.Duration(b.N+1) * 250 * time.Millisecond,
		Adapt:    experiment.AdaptConfig(adapt.PolicyNone),
		Engine:   experiment.EngineConfig(adapt.PolicyNone),
	})
	if err != nil {
		b.Fatal(err)
	}
	_ = res
}

// benchRecord replays one 1 M-record batch, split round-robin over four
// sources, through a fresh pipeline per iteration — the record-mode
// counterpart of BenchmarkEngineTick (and the shape of the repository
// benchmark's record_ysb_topk workload).
func benchRecord(b *testing.B, events []stream.Event, build func() *queries.RecordPipeline) {
	const sources = 4
	streams := make([][]stream.Event, sources)
	for i, e := range events {
		streams[i%sources] = append(streams[i%sources], e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp := build()
		inputs := stream.Inputs{}
		for s, src := range rp.Sources {
			inputs[src] = streams[s]
		}
		if err := rp.Pipeline.Run(inputs, stream.RunConfig{WatermarkEvery: time.Second}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/record")
}

func BenchmarkRecordYSB(b *testing.B) {
	ads := workload.GenerateYSB(workload.YSBConfig{Seed: benchSeed, Duration: 100 * time.Second})
	benchRecord(b, workload.YSBStream(ads), func() *queries.RecordPipeline {
		return queries.BuildYSBRecord(4, 10*time.Second)
	})
}

func BenchmarkRecordTopK(b *testing.B) {
	tweets := workload.GenerateTweets(workload.TwitterConfig{Seed: benchSeed, Diurnal: true, Duration: 100 * time.Second})
	benchRecord(b, workload.TweetStream(tweets), func() *queries.RecordPipeline {
		return queries.BuildTopKRecord(4, 10, 30*time.Second)
	})
}
