package trace

import "time"

// Presets matching the measurements reported in the paper.

// Fig2Bandwidth models the one-day Oregon→Ohio WAN bandwidth measurement of
// Figure 2: mean around 110 Mbps, sampled every 5 minutes, with 25%–93%
// deviation from the mean. Values are in Mbps.
func Fig2Bandwidth(seed int64) *Trace {
	walk := randomWalk(walkConfig{
		Seed:     seed,
		Start:    1.0,
		Min:      0.07, // ~93% below mean
		Max:      1.75, // ~75% above mean
		MaxStep:  0.40,
		Interval: 5 * time.Minute,
		Duration: 24 * time.Hour,
	})
	const meanMbps = 110
	return walk.Scale(meanMbps)
}

// LiveBandwidthFactor models the §8.6 live-environment pair-wise bandwidth
// variation factor, which the paper reports ranging from 0.51 to 2.36.
func LiveBandwidthFactor(seed int64, duration time.Duration) *Trace {
	return randomWalk(walkConfig{
		Seed:     seed,
		Start:    1.0,
		Min:      0.51,
		Max:      2.36,
		MaxStep:  0.30,
		Interval: time.Minute,
		Duration: duration,
	})
}

// LiveWorkloadFactor models the §8.6 random per-source workload variation
// factor, which the paper reports ranging from 0.8 to 2.4.
func LiveWorkloadFactor(seed int64, duration time.Duration) *Trace {
	return randomWalk(walkConfig{
		Seed:     seed,
		Start:    1.0,
		Min:      0.8,
		Max:      2.4,
		MaxStep:  0.35,
		Interval: time.Minute,
		Duration: duration,
	})
}
