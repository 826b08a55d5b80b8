// Package workload generates the evaluation workloads of §8.3: the Yahoo
// Streaming Benchmark (YSB) advertising events and a synthetic geo-tagged
// Twitter trace with realistic spatial skew, Zipfian topic popularity, and
// the 2× day/night temporal pattern reported for Twitter (§2.2). All
// generators are seeded and deterministic.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/wasp-stream/wasp/internal/stream"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// AdEventType enumerates YSB ad event types.
type AdEventType int

// YSB event types.
const (
	AdView AdEventType = iota + 1
	AdClick
	AdPurchase
)

// String names the event type.
func (t AdEventType) String() string {
	switch t {
	case AdView:
		return "view"
	case AdClick:
		return "click"
	case AdPurchase:
		return "purchase"
	default:
		return fmt.Sprintf("AdEventType(%d)", int(t))
	}
}

// AdEvent is one YSB advertising event.
type AdEvent struct {
	UserID     int64
	PageID     int64
	AdID       int64
	AdType     string
	EventType  AdEventType
	CampaignID int64
	Time       vclock.Time
}

// YSBConfig parameterises the YSB generator.
type YSBConfig struct {
	Seed int64
	// Campaigns is the number of ad campaigns (default 100; the paper
	// notes YSB's key distribution is low).
	Campaigns int
	// Rate is events/s (default 10000).
	Rate float64
	// Duration bounds the generated event times to [0, Duration).
	Duration time.Duration
}

// adsPerCampaign maps ads onto campaigns.
const adsPerCampaign = 10

func (c YSBConfig) withDefaults() YSBConfig {
	if c.Campaigns == 0 {
		c.Campaigns = 100
	}
	if c.Rate == 0 {
		c.Rate = 10000
	}
	return c
}

var adTypes = []string{"banner", "modal", "sponsored-search", "mail", "mobile"}

// GenerateYSB produces a time-ordered YSB event stream. Event types are
// drawn uniformly from {view, click, purchase} (so a view filter has
// selectivity 1/3, as in the benchmark). The stream is a pure function of
// cfg (randomness comes from a fresh source seeded with cfg.Seed).
func GenerateYSB(cfg YSBConfig) []AdEvent {
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := cfg.withDefaults()
	n := int(c.Rate * c.Duration.Seconds())
	events := make([]AdEvent, 0, n)
	interval := vclock.Time(float64(time.Second) / c.Rate)
	var at vclock.Time
	for i := 0; i < n; i++ {
		adID := rng.Int63n(int64(c.Campaigns * adsPerCampaign))
		events = append(events, AdEvent{
			UserID:     rng.Int63n(100000),
			PageID:     rng.Int63n(10000),
			AdID:       adID,
			AdType:     adTypes[rng.Intn(len(adTypes))],
			EventType:  AdEventType(rng.Intn(3) + 1),
			CampaignID: adID / adsPerCampaign,
			Time:       at,
		})
		at += interval
	}
	return events
}

// keyID is the stream key id of the key formatted from raw: raw+1. The
// generators number campaigns, countries and topics from zero without gaps,
// so the ids are dense; and because the id is a function of the key alone,
// streams made from different batches (other seeds, other calls) agree on
// it and can feed one operator. A raw id whose key id would fall outside
// (0, stream.MaxKeyID) gets none.
func keyID(raw int64) uint32 {
	if raw < 0 || raw >= stream.MaxKeyID-1 {
		return 0
	}
	return uint32(raw) + 1
}

// YSBStream converts YSB events into stream events keyed by campaign.
// Campaign ids are dense from zero, so each id's key is formatted once, on
// first use, into a slice indexed by id; every event of a campaign shares
// the one string.
func YSBStream(events []AdEvent) []stream.Event {
	var n int64
	for _, e := range events {
		n = max(n, e.CampaignID+1)
	}
	campaigns := make([]string, min(n, stream.MaxKeyID))
	out := make([]stream.Event, len(events))
	for i, e := range events {
		out[i] = stream.Event{
			Time:  e.Time,
			Key:   denseKey(campaigns, "c%d", e.CampaignID),
			KeyID: keyID(e.CampaignID),
			Value: e,
		}
	}
	return out
}
