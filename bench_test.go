// Benchmarks regenerating every figure and headline number of the paper's
// evaluation. Each benchmark runs the corresponding experiment and reports
// the measured quantities as custom metrics next to the paper's values
// (encoded in the metric name where useful). Run with:
//
//	go test -bench=. -benchmem
//
// Absolute wall-clock time per op is the cost of simulating the experiment,
// not a claim about the measured system; the custom metrics carry the
// reproduction results.
package telepresence_test

import (
	"testing"

	tp "telepresence"
)

func benchOpts(seed int64) tp.Options {
	o := tp.Quick(seed)
	o.SessionDuration = 4 * tp.Second
	o.Reps = 1
	return o
}

// BenchmarkFig4ServerRTT regenerates Figure 4: RTT CDFs between the nine US
// vantage points and each provider's servers. Paper: worst case >100 ms;
// mid-US servers keep everyone <70 ms; 20% of TX-F RTTs <20 ms vs 38% for
// VA-F.
func BenchmarkFig4ServerRTT(b *testing.B) {
	var rows []tp.Fig4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = tp.Fig4(benchOpts(1))
		if err != nil {
			b.Fatal(err)
		}
	}
	byLabel := map[string]tp.Fig4Row{}
	worst := 0.0
	for _, r := range rows {
		byLabel[r.Label] = r
		if m := r.Sample.Max(); m > worst {
			worst = m
		}
	}
	b.ReportMetric(worst, "worstRTTms_paper>100")
	b.ReportMetric(byLabel["TX-F"].Sample.FractionBelow(20)*100, "%TX-F<20ms_paper20")
	b.ReportMetric(byLabel["VA-F"].Sample.FractionBelow(20)*100, "%VA-F<20ms_paper38")
	b.ReportMetric(byLabel["CA-W"].Sample.Max(), "CA-W_maxms_paper>100")
}

// BenchmarkProtocolMatrix regenerates the §4.1 protocol findings: QUIC only
// for all-Vision-Pro FaceTime, RTP otherwise; P2P rules per app.
func BenchmarkProtocolMatrix(b *testing.B) {
	var cases []tp.ProtocolCase
	for i := 0; i < b.N; i++ {
		cases = tp.ProtocolMatrix()
	}
	quicCount, p2p := 0, 0
	for _, c := range cases {
		if c.Transport == tp.TransportQUIC {
			quicCount++
		}
		if c.P2P {
			p2p++
		}
	}
	b.ReportMetric(float64(quicCount), "QUICcases_paper1")
	b.ReportMetric(float64(p2p), "P2Pcases_paper4")
}

// BenchmarkFig5Throughput regenerates Figure 5: two-user throughput per
// app. Paper means: F 0.67, F* ~2, Z ~1.5, W >4, T ~2.7 Mbps.
func BenchmarkFig5Throughput(b *testing.B) {
	var rows []tp.Fig5Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = tp.Fig5(benchOpts(2))
		if err != nil {
			b.Fatal(err)
		}
	}
	paper := map[string]string{"F": "0.67", "F*": "2.0", "Z": "1.5", "W": "4.3", "T": "2.7"}
	for _, r := range rows {
		b.ReportMetric(r.Box.Mean, r.Label+"_Mbps_paper"+paper[r.Label])
	}
}

// BenchmarkMeshStreaming regenerates the §4.3 direct-3D-streaming estimate.
// Paper: 108.4±16.7 Mbps for ten 70-90K-triangle heads at 90 FPS.
func BenchmarkMeshStreaming(b *testing.B) {
	var res *tp.MeshStreamingResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = tp.MeshStreaming(benchOpts(3))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MbpsSample.Mean(), "Mbps_paper108.4")
	b.ReportMetric(res.MbpsSample.Std(), "MbpsStd_paper16.7")
}

// BenchmarkKeypointStreaming regenerates the §4.3 semantic estimate. Paper:
// 74 keypoints, LZMA, 90 FPS => 0.64±0.02 Mbps.
func BenchmarkKeypointStreaming(b *testing.B) {
	var res *tp.KeypointStreamingResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = tp.KeypointStreaming(benchOpts(4))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MbpsSample.Mean(), "Mbps_paper0.64")
	b.ReportMetric(float64(res.Keypoints), "keypoints_paper74")
}

// BenchmarkDisplayLatency regenerates the §4.3 viewport-flip experiment.
// Paper: the persona/real-world display gap stays <16 ms for injected
// delays of 0-1000 ms, ruling out pre-rendered video.
func BenchmarkDisplayLatency(b *testing.B) {
	var rows []tp.DisplayLatencyRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = tp.DisplayLatency(benchOpts(5), []float64{0, 250, 500, 1000})
		if err != nil {
			b.Fatal(err)
		}
	}
	maxSemantic, maxPrerendered := 0.0, 0.0
	for _, r := range rows {
		if r.SemanticDiffMs > maxSemantic {
			maxSemantic = r.SemanticDiffMs
		}
		if r.PrerenderedDiffMs > maxPrerendered {
			maxPrerendered = r.PrerenderedDiffMs
		}
	}
	b.ReportMetric(maxSemantic, "semanticGapMs_paper<16")
	b.ReportMetric(maxPrerendered, "prerenderedGapMs_growsWithRTT")
}

// BenchmarkRateAdaptation regenerates the §4.3 bandwidth-cap experiment.
// Paper: at a 0.7 Mbps uplink cap the spatial persona becomes unavailable.
func BenchmarkRateAdaptation(b *testing.B) {
	var rows []tp.RateAdaptationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = tp.RateAdaptation(benchOpts(6), []float64{0, 0.7})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].UnavailableFrac*100, "%unavail_uncapped_paper0")
	b.ReportMetric(rows[1].UnavailableFrac*100, "%unavail_0.7Mbps_paper~100")
}

// BenchmarkFig6Visibility regenerates Figure 6: triangles and GPU time per
// visibility optimization. Paper: BL 78,030/6.55 ms; V 36/2.68 ms (-59%);
// F 21,036/3.97 ms; D 45,036/3.91 ms; bandwidth unchanged.
func BenchmarkFig6Visibility(b *testing.B) {
	var rows []tp.Fig6Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = tp.Fig6(benchOpts(7))
		if err != nil {
			b.Fatal(err)
		}
	}
	paperGPU := map[string]string{"BL": "6.55", "V": "2.68", "F": "3.97", "D": "3.91"}
	for _, r := range rows {
		b.ReportMetric(r.GPUMs, r.Mode+"_GPUms_paper"+paperGPU[r.Mode])
		b.ReportMetric(float64(r.Triangles), r.Mode+"_tris")
	}
}

// BenchmarkFig7Scalability regenerates Figure 7: triangles, CPU/GPU time
// and downlink throughput for 2-5 users. Paper: GPU 5.65->7.62 ms
// (95th pct >9 ms at five users), CPU 5.67->6.76 ms, downlink ~linear.
func BenchmarkFig7Scalability(b *testing.B) {
	var rows []tp.Fig7Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = tp.Fig7(benchOpts(8))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		u := string(rune('0' + r.Users))
		b.ReportMetric(r.GPUMean, u+"u_GPUms")
		b.ReportMetric(r.CPUMean, u+"u_CPUms")
		b.ReportMetric(r.DownMbps, u+"u_downMbps")
	}
	b.ReportMetric(rows[len(rows)-1].GPUP95, "5u_GPUp95_paper>9")
}

// BenchmarkRemoteRenderingAblation quantifies Implications 4: remote
// rendering decouples downlink bandwidth from user count.
func BenchmarkRemoteRenderingAblation(b *testing.B) {
	var rows []tp.RemoteRenderRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = tp.RemoteRenderAblation(benchOpts(9))
		if err != nil {
			b.Fatal(err)
		}
	}
	first, last := rows[0], rows[len(rows)-1]
	b.ReportMetric(last.FanoutMbps/first.FanoutMbps, "fanoutGrowth_paper~4x")
	b.ReportMetric(last.RemoteRenderMbps/first.RemoteRenderMbps, "remoteGrowth_want~1x")
}

// BenchmarkAnycastAudit regenerates the §4.1 anycast check: every provider
// server is unicast.
func BenchmarkAnycastAudit(b *testing.B) {
	var verdicts []tp.AnycastVerdict
	for i := 0; i < b.N; i++ {
		var err error
		verdicts, err = tp.AnycastAudit(benchOpts(10))
		if err != nil {
			b.Fatal(err)
		}
	}
	anycast := 0
	for _, v := range verdicts {
		if v.Anycast {
			anycast++
		}
	}
	b.ReportMetric(float64(anycast), "anycastServers_paper0")
}

// BenchmarkMultiServerAblation quantifies Implications 1: geo-distributed
// serving versus the measured initiator-nearest policy.
func BenchmarkMultiServerAblation(b *testing.B) {
	var rows []tp.MultiServerRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = tp.MultiServerAblation(benchOpts(11))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].MaxOneWayMs, "initiatorMaxMs")
	b.ReportMetric(rows[2].MaxOneWayMs, "geoDistMaxMs_lower")
}

// BenchmarkViewportDelivery quantifies Implications 3: bandwidth saved by
// visibility-aware delivery.
func BenchmarkViewportDelivery(b *testing.B) {
	var row tp.ViewportDeliveryRow
	for i := 0; i < b.N; i++ {
		var err error
		row, err = tp.ViewportDeliveryAblation(benchOpts(12))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.SavingsFrac*100, "%saved")
	b.ReportMetric(row.OutOfViewFrac*100, "%outOfView")
}

// BenchmarkPassiveQoE validates the §5 direction: frame rate inferred from
// encrypted packet timing (90 FPS spatial vs 30 FPS video).
func BenchmarkPassiveQoE(b *testing.B) {
	var rows []tp.QoESweepRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = tp.PassiveQoESweep(benchOpts(13))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.InferredFPS, r.App.String()+"_inferredFPS")
	}
}

// benchFleet runs the full registered suite at the given worker count and
// reports rows/op so sequential and parallel runs can be compared:
//
//	go test -bench=BenchmarkFleetSuite -benchtime=1x
//
// The suite is embarrassingly parallel across (experiment, rep) units, so
// eight workers should finish the repetition-heavy experiments well over
// 2x faster than one.
func benchFleet(b *testing.B, workers int) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = runFleetSuite(b, tp.FleetConfig{Workers: workers})
	}
	b.ReportMetric(float64(rows), "rows")
}

// runFleetSuite streams the whole registered suite into memory sinks and
// returns the number of rows emitted.
func runFleetSuite(b *testing.B, cfg tp.FleetConfig) int {
	results, err := tp.FleetRunStream(tp.Experiments(), benchOpts(20), cfg, memorySinks)
	if err != nil {
		b.Fatal(err)
	}
	rows := 0
	for _, r := range results {
		rows += r.RowCount
	}
	return rows
}

// memorySinks collects each experiment's rows in a fresh MemorySink.
func memorySinks(tp.Experiment) (tp.Sink, error) { return tp.NewMemorySink(), nil }

func BenchmarkFleetSuiteSequential(b *testing.B) { benchFleet(b, 1) }
func BenchmarkFleetSuiteParallel8(b *testing.B)  { benchFleet(b, 8) }

// BenchmarkFleetSuiteSequentialCheckpoint measures the checkpointing tax:
// the same sequential suite with every completed rep journaled (dual-
// encoded entry + atomic temp-and-rename write per unit). The fault-
// tolerance budget is <5% over BenchmarkFleetSuiteSequential. The
// host-time benchmark of the fleet engine and journal is the
// fleet_journal workload in bench/ (see bench/README.md).
func BenchmarkFleetSuiteSequentialCheckpoint(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		journal, err := tp.OpenFleetJournal(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rows = runFleetSuite(b, tp.FleetConfig{Workers: 1, Checkpoint: journal})
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkFleetKeypoints8Reps isolates a repetition-heavy experiment:
// eight independent keypoint-streaming reps on one worker versus eight.
func benchFleetKeypoints(b *testing.B, workers int) {
	exps, err := tp.SelectExperiments("keypoints")
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts(21)
	opts.Reps = 8
	for i := 0; i < b.N; i++ {
		if _, err := tp.FleetRunStream(exps, opts, tp.FleetConfig{Workers: workers}, memorySinks); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFleetKeypoints8RepsSequential(b *testing.B) { benchFleetKeypoints(b, 1) }
func BenchmarkFleetKeypoints8RepsParallel8(b *testing.B)  { benchFleetKeypoints(b, 8) }
