package claims

import (
	"math"

	"telepresence/internal/core"
	"telepresence/internal/vca"
)

// Table returns every checked claim in the paper's order. Bands are the
// thresholds the tests always used, as strict as they were; where the
// paper states a spread for a value no test checked, the spread is the
// band (mesh.mbps). Paper keeps the paper's value where a band is looser.
func Table() []Entry {
	fig5 := func(labels ...any) Measure { return where("fig5", "Box.Mean", "Label", labels...) }
	fig6 := func(path string, modes ...any) Measure { return where("fig6", path, "Mode", modes...) }
	fig7 := func(path string, users ...any) Measure { return where("fig7", path, "Users", users...) }
	// rises compares each user count's value with the previous count's.
	rises := func(path string, f func(x, y float64) float64) Measure {
		return zip(fig7(path, 3.0, 4.0, 5.0), fig7(path, 2.0, 3.0, 4.0), f)
	}
	remote := func(path string, users float64) Measure { return where("remote", path, "Users", users) }
	latency := func(path string, ms float64) Measure { return where("latency", path, "InjectedDelayMs", ms) }
	rate := func(path string, mbps float64) Measure { return where("rate", path, "CapMbps", mbps) }
	// vsInitiator is policy p's value minus the measured initiator-nearest policy's.
	vsInitiator := func(path string, p core.ServerPolicy) Measure {
		return zip(where("servers", path, "Policy", float64(p)), where("servers", path, "Policy", float64(core.PolicyInitiator)), sub)
	}
	qoe := func(app vca.App) Measure { return where("qoe", "InferredFPS", "App", float64(app)) }
	spatial, video := float64(vca.MediaSpatialPersona), float64(vca.Media2DVideo)

	return []Entry{
		// §4.1 and Figure 4: where the servers are, and what it costs.
		{"fig4.series", "Fig. 4", "10 lines; TX/IL <70 ms; <20 ms: TX-F 20%, VA-F 38%", "RTT series, one per vantage-provider pair", distinct("fig4", "Label"), exactly(10)},
		{"fig4.nonempty", "Fig. 4", "", "samples per series", col("fig4", "Sample.n"), above(0)},
		{"fig4.worst-rtt", "Fig. 4", ">100 ms (CA-W)", "worst server RTT inside the US (ms)", maxOf(col("fig4", "Sample.max")), atLeast(100)},
		{"anycast.none", "§4.1", "no anycast", "servers flagged anycast", count("anycast", "Anycast", true), exactly(0)},
		{"protocols.cases", "§4.1", "", "device mixes planned", count("protocols", ""), exactly(8)},
		{"protocols.spatial-quic", "§4.1", "QUIC only for all-VP FaceTime", "spatial persona transport", where("protocols", "Transport", "Media", spatial), exactly(float64(vca.TransportQUIC))},
		{"protocols.spatial-relayed", "§4.1", "never P2P; 2D P2P for two-party Zoom/FaceTime", "spatial persona P2P flag", where("protocols", "P2P", "Media", spatial), exactly(0)},
		{"protocols.2d-rtp", "§4.1", "RTP otherwise", "2D persona transport", where("protocols", "Transport", "Media", video), exactly(float64(vca.TransportRTP))},
		{"protocols.one-spatial", "§4.1", "FaceTime all-VP only", "device mixes with a spatial persona", count("protocols", "Media", spatial), exactly(1)},
		// Figure 5: the spatial persona needs less bandwidth than any 2D one.
		{"fig5.apps", "Fig. 5", "", "app mixes", count("fig5", ""), exactly(5)},
		{"fig5.spatial-lowest", "Fig. 5", "F 0.67 < Z ~1.5, F* ~2, T ~2.7, W >4", "each 2D mean minus the spatial mean (Mbps)", zip(fig5("F*", "Z", "W", "T"), fig5("F"), sub), above(0)},
		{"fig5.webex-highest", "Fig. 5", "W >4 Mbps", "Webex mean minus each other 2D mean (Mbps)", zip(fig5("W"), fig5("T", "Z", "F*"), sub), above(0)},
		{"fig5.zoom-below-teams", "Fig. 5", "Z ~1.5 < T ~2.7", "Teams mean minus Zoom mean (Mbps)", zip(fig5("T"), fig5("Z"), sub), above(0)},
		{"fig5.spatial-mbps", "Fig. 5", "0.67 Mbps", "spatial persona mean uplink (Mbps)", fig5("F"), within(0.4, 1.0)},
		{"fig5.webex-mbps", "Fig. 5", ">4 Mbps", "Webex mean uplink (Mbps)", fig5("W"), atLeast(3.0)},
		// §4.3: why FaceTime sends keypoints, not meshes.
		{"mesh.heads", "§4.3", "10 heads", "head meshes priced", count("mesh", ""), exactly(10)},
		{"mesh.triangles", "§4.3", "70-90K", "triangles per head", col("mesh", "Triangles"), within(69000, 91000)},
		{"mesh.mbps", "§4.3", "108.4±16.7 Mbps", "mean Draco-class stream at 90 FPS (Mbps)", meanOf(col("mesh", "Mbps")), around(108.4, 16.7)},
		{"keypoints.count", "§4.3", "74", "keypoints per frame", col("keypoints", "Keypoints"), exactly(74)},
		{"keypoints.mbps", "§4.3", "0.64±0.02 Mbps", "mean keypoint stream at 90 FPS (Mbps)", meanOf(col("keypoints", "Mbps")), within(0.5, 0.8)},
		{"keypoints.std", "§4.3", "±0.02 Mbps", "keypoint stream spread over reps (Mbps)", stdOf(col("keypoints", "Mbps")), atMost(0.05)},
		{"mesh.keypoint-ratio", "§4.3", "~170x (108.4 vs 0.64)", "mean mesh stream over mean keypoint stream", zip(meanOf(col("mesh", "Mbps")), meanOf(col("keypoints", "Mbps")), div), atLeast(50)},
		// §4.3: the persona renders locally; it is not pre-rendered video.
		{"latency.delays", "§4.3", "0-1000 ms injected", "injected delays", count("latency", ""), exactly(5)},
		{"latency.semantic-gap", "§4.3", "<16 ms", "persona vs real-world display gap, each delay (ms)", col("latency", "SemanticDiffMs"), atMost(16)},
		{"latency.prerendered-rtt", "§4.3", "", "pre-rendered gap minus the injected RTT, each delay (ms)", zip(col("latency", "PrerenderedDiffMs"), col("latency", "InjectedDelayMs"), func(gap, d float64) float64 { return gap - 2*d }), atLeast(0)},
		{"latency.prerendered-grows", "§4.3", "", "pre-rendered gap at 1000 ms minus at 0 ms (ms)", zip(latency("PrerenderedDiffMs", 1000), latency("PrerenderedDiffMs", 0), sub), above(1500)},
		{"latency.semantic-flat", "§4.3", "independent of delay", "semantic gap change from 0 to 1000 ms (ms)", zip(latency("SemanticDiffMs", 1000), latency("SemanticDiffMs", 0), absDiff), atMost(16)},
		// §4.3: no rate adaptation, so a tight cap breaks the persona.
		{"rate.uncapped", "§4.3", "", "persona unavailable share, no cap", rate("UnavailableFrac", 0), atMost(0.1)},
		{"rate.2mbps", "§4.3", "", "persona unavailable share, 2 Mbps cap", rate("UnavailableFrac", 2), atMost(0.1)},
		{"rate.0.7mbps", "§4.3", "unusable at 0.7 Mbps", "persona unavailable share, 0.7 Mbps cap", rate("UnavailableFrac", 0.7), atLeast(0.3)},
		{"rate.0.7mbps-latency", "§4.3", "", "frame age at 0.7 Mbps minus at 2 Mbps (ms)", zip(rate("MeanLatencyMs", 0.7), rate("MeanLatencyMs", 2), sub), above(0)},
		// Figure 6: visibility optimizations cut GPU time, not CPU or bandwidth.
		{"fig6.modes", "Fig. 6", "", "visibility scenarios", count("fig6", ""), exactly(4)},
		{"fig6.baseline-triangles", "Fig. 6", "BL 78,030; V 36, F 21,036, D 45,036", "triangles at baseline", fig6("Triangles", "BL"), exactly(78030)},
		{"fig6.gpu-drops", "Fig. 6", "BL 6.55; V 2.68, F 3.97, D 3.91 ms", "each mode's GPU time minus baseline (ms)", zip(fig6("GPUMs", "V", "F", "D"), fig6("GPUMs", "BL"), sub), below(0)},
		{"fig6.cpu-unchanged", "Fig. 6", "unchanged", "each mode's CPU time minus baseline (ms)", zip(fig6("CPUMs", "V", "F", "D"), fig6("CPUMs", "BL"), sub), exactly(0)},
		{"fig6.uplink-unchanged", "§4.4", "unchanged", "each mode's uplink off baseline (Mbps)", zip(fig6("UplinkMbps", "V", "F", "D"), fig6("UplinkMbps", "BL"), absDiff), atMost(0.08)},
		// Figure 7: rendering and downlink grow with the number of users.
		{"fig7.users", "Fig. 7", "", "user counts, 2-5", count("fig7", ""), exactly(4)},
		{"fig7.triangles-rise", "Fig. 7a", "rise, plateau at five users", "mean triangles over the previous user count", rises("TriMean", div), atLeast(0.96)},
		{"fig7.gpu-rises", "Fig. 7b", "5.65 -> 7.62 ms", "GPU mean rise per added user (ms)", rises("GPUMean", sub), above(0)},
		{"fig7.cpu-rises", "Fig. 7b", "5.67 -> 6.76 ms", "CPU mean rise per added user (ms)", rises("CPUMean", sub), above(0)},
		{"fig7.downlink-rises", "Fig. 7c", "~linear", "downlink rise per added user (Mbps)", rises("DownMbps", sub), above(0)},
		{"fig7.downlink-linear", "Fig. 7c", "~linear", "per-remote-user downlink, 5 users vs 2, relative change", zip(fig7("DownMbps", 5.0), fig7("DownMbps", 2.0), func(d5, d2 float64) float64 { return math.Abs(d5/4-d2) / d2 }), atMost(0.3)},
		{"fig7.gpu-p95-5users", "Fig. 7b", ">9 ms", "GPU p95 at five users (ms)", fig7("GPUP95", 5.0), atLeast(8.3)},
		{"fig7.gpu-2users", "Fig. 7b", "5.65±0.69 ms", "GPU mean at two users (ms)", fig7("GPUMean", 2.0), around(5.65, 1)},
		{"fig7.cpu-2users", "Fig. 7b", "5.67±0.69 ms", "CPU mean at two users (ms)", fig7("CPUMean", 2.0), around(5.67, 1)},
		{"fig7.triangles-p5-flat", "Fig. 7a", "flat from 3 to 5 users", "5th-percentile triangles, 5 users over 3", zip(fig7("TriP5", 5.0), fig7("TriP5", 3.0), div), atMost(1.6)},
		// Implications 4: remote rendering decouples downlink from users.
		{"remote.fanout-grows", "Implications 4", "", "fan-out downlink, 5 users over 2", zip(remote("FanoutMbps", 5), remote("FanoutMbps", 2), div), above(1.5)},
		{"remote.render-flat", "Implications 4", "", "remote-render downlink, 5 users over 2", zip(remote("RemoteRenderMbps", 5), remote("RemoteRenderMbps", 2), div), within(0.7, 1.3)},
		{"remote.fanout-exceeds", "Implications 4", "", "fan-out minus remote-render downlink at 5 users (Mbps)", zip(remote("FanoutMbps", 5), remote("RemoteRenderMbps", 5), sub), above(0)},
		// Implications 1: geo-distributed servers beat the measured policy.
		{"servers.policies", "Implications 1", "", "server policies", count("servers", ""), exactly(3)},
		{"servers.positive", "Implications 1", "", "smaller of max and mean one-way latency, each policy (ms)", zip(col("servers", "MaxOneWayMs"), col("servers", "MeanOneWayMs"), math.Min), above(0)},
		{"servers.mean-below-max", "Implications 1", "", "mean minus max one-way latency, each policy (ms)", zip(col("servers", "MeanOneWayMs"), col("servers", "MaxOneWayMs"), sub), atMost(0)},
		{"servers.geo-max", "Implications 1", "", "geo-distributed minus initiator-nearest worst latency (ms)", vsInitiator("MaxOneWayMs", core.PolicyGeoDistributed), below(0)},
		{"servers.central-max", "Implications 1", "TX/IL servers cap the worst case", "central-US minus initiator-nearest worst latency (ms)", vsInitiator("MaxOneWayMs", core.PolicyCentral), below(0)},
		{"servers.geo-mean", "Implications 1", "", "geo-distributed minus initiator-nearest mean latency (ms)", vsInitiator("MeanOneWayMs", core.PolicyGeoDistributed), below(0)},
		{"servers.geo-qoe", "Implications 1", "100 ms QoE bar", "geo-distributed minus initiator-nearest share of pairs under 100 ms", vsInitiator("FracUnder100", core.PolicyGeoDistributed), atLeast(0)},
		// Implications 3: what viewport-aware delivery would save.
		{"viewport.out-of-view", "Implications 3", "", "share of time the persona is out of view", col("viewport", "OutOfViewFrac"), between(0.05, 0.8)},
		{"viewport.gating-saves", "Implications 3", "FaceTime does not gate", "gated minus viewport-blind uplink (Mbps)", zip(col("viewport", "GatedMbps"), col("viewport", "BaselineMbps"), sub), below(0)},
		{"viewport.savings-track", "Implications 3", "", "savings minus half the out-of-view share", zip(col("viewport", "SavingsFrac"), col("viewport", "OutOfViewFrac"), func(s, out float64) float64 { return s - out/2 }), atLeast(0)},
		{"viewport.savings-bounded", "Implications 3", "", "savings minus the out-of-view share", zip(col("viewport", "SavingsFrac"), col("viewport", "OutOfViewFrac"), sub), atMost(0)},
		// §5: frame rate and size from encrypted packet timing alone.
		{"qoe.apps", "§5", "", "apps fingerprinted", count("qoe", ""), exactly(2)},
		{"qoe.fps-inferred", "§5", "", "inferred frame rate, each app (FPS)", col("qoe", "InferredFPS"), above(0)},
		{"qoe.fps-error", "§5", "", "inferred frame rate's relative error, each app", zip(col("qoe", "InferredFPS"), col("qoe", "TrueFPS"), func(got, want float64) float64 { return math.Abs(got-want) / want }), atMost(0.25)},
		{"qoe.frame-bytes", "§5", "", "inferred frame size, each app (bytes)", col("qoe", "MeanFrameBytes"), above(0)},
		{"qoe.spatial-vs-video", "§5", "90 vs 30 FPS", "FaceTime spatial over Zoom inferred frame rate", zip(qoe(vca.FaceTime), qoe(vca.Zoom), div), atLeast(2)},
	}
}
