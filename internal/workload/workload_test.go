package workload

import (
	"math"
	"sort"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/vclock"
)

func TestGenerateYSBDeterministicAndOrdered(t *testing.T) {
	cfg := YSBConfig{Seed: 5, Rate: 1000, Duration: 2 * time.Second}
	a := GenerateYSB(cfg)
	b := GenerateYSB(cfg)
	if len(a) != 2000 {
		t.Fatalf("len = %d, want 2000", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs across same-seed runs", i)
		}
		if i > 0 && a[i].Time < a[i-1].Time {
			t.Fatal("events not time-ordered")
		}
	}
}

func TestYSBCampaignMapping(t *testing.T) {
	events := GenerateYSB(YSBConfig{Seed: 1, Rate: 1000, Duration: time.Second})
	for _, e := range events {
		if e.CampaignID != e.AdID/10 {
			t.Fatalf("campaign %d != ad %d / 10", e.CampaignID, e.AdID)
		}
		if e.CampaignID < 0 || e.CampaignID >= 100 {
			t.Fatalf("campaign %d out of range", e.CampaignID)
		}
	}
}

func TestYSBEventTypeDistribution(t *testing.T) {
	events := GenerateYSB(YSBConfig{Seed: 2, Rate: 10000, Duration: 3 * time.Second})
	counts := make(map[AdEventType]int)
	for _, e := range events {
		counts[e.EventType]++
	}
	for _, et := range []AdEventType{AdView, AdClick, AdPurchase} {
		frac := float64(counts[et]) / float64(len(events))
		if math.Abs(frac-1.0/3) > 0.03 {
			t.Fatalf("%v fraction = %v, want ~1/3", et, frac)
		}
	}
}

func TestYSBStream(t *testing.T) {
	events := GenerateYSB(YSBConfig{Seed: 1, Rate: 100, Duration: time.Second})
	s := YSBStream(events)
	if len(s) != len(events) {
		t.Fatal("length mismatch")
	}
	if s[0].Key == "" || s[0].Value.(AdEvent) != events[0] {
		t.Fatalf("stream event = %+v", s[0])
	}
}

func TestAdEventTypeString(t *testing.T) {
	if AdView.String() != "view" || AdClick.String() != "click" || AdPurchase.String() != "purchase" {
		t.Fatal("String mismatch")
	}
}

func TestGenerateTweetsSpatialSkew(t *testing.T) {
	tweets := GenerateTweets(TwitterConfig{Seed: 7, Rate: 20000, Duration: 5 * time.Second})
	shares := CountryShares(tweets)
	if len(shares) != 8 {
		t.Fatalf("countries = %d, want 8", len(shares))
	}
	// US should dominate (weight 0.30).
	if shares["us"] < 0.25 || shares["us"] > 0.35 {
		t.Fatalf("us share = %v, want ~0.30", shares["us"])
	}
	if shares["fr"] > shares["us"] {
		t.Fatal("spatial skew inverted")
	}
}

func TestGenerateTweetsZipfTopics(t *testing.T) {
	tweets := GenerateTweets(TwitterConfig{Seed: 9, Rate: 20000, Duration: 5 * time.Second})
	counts := make(map[string]int)
	for _, tw := range tweets {
		counts[tw.Topic]++
	}
	// The most popular topic must dwarf the median: Zipf s=1.2.
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if float64(maxCount) < 0.1*float64(len(tweets)) {
		t.Fatalf("top topic count %d of %d — not Zipf-skewed", maxCount, len(tweets))
	}
}

func TestDiurnalFactorShape(t *testing.T) {
	peak := diurnalFactor(vclock.Time(15*time.Hour), 0)
	trough := diurnalFactor(vclock.Time(3*time.Hour), 0)
	if math.Abs(peak/trough-2) > 0.01 {
		t.Fatalf("peak/trough = %v, want 2", peak/trough)
	}
	// Offset shifts the local peak.
	shifted := diurnalFactor(vclock.Time(6*time.Hour), 9*time.Hour) // local 15:00
	if math.Abs(shifted-peak) > 1e-9 {
		t.Fatalf("UTC offset not applied: %v vs %v", shifted, peak)
	}
}

func TestGenerateTweetsDiurnalChangesVolumeMix(t *testing.T) {
	// At 21:00 UTC the US (UTC-6) is at its local 15:00 peak while Japan
	// (UTC+9) is at its local 06:00 low; at 09:00 UTC the roles reverse.
	tweets := GenerateTweets(TwitterConfig{Seed: 3, Rate: 2, Duration: 24 * time.Hour, Diurnal: true})
	hour := func(h int) map[string]float64 {
		from := vclock.Time(time.Duration(h) * time.Hour)
		to := from + vclock.Time(time.Hour)
		lo := sort.Search(len(tweets), func(i int) bool { return tweets[i].Time >= from })
		hi := sort.Search(len(tweets), func(i int) bool { return tweets[i].Time >= to })
		return CountryShares(tweets[lo:hi])
	}
	day, night := hour(21), hour(9)
	if !(day["us"] > night["us"]) {
		t.Fatalf("us day share %v <= night share %v", day["us"], night["us"])
	}
	if !(night["jp"] > day["jp"]) {
		t.Fatalf("jp night share %v <= day share %v", night["jp"], day["jp"])
	}
}

func TestTweetStreamKeying(t *testing.T) {
	tweets := GenerateTweets(TwitterConfig{Seed: 1, Rate: 100, Duration: time.Second})
	s := TweetStream(tweets)
	for i := range s {
		if s[i].Key != tweets[i].Country {
			t.Fatal("stream key is not the country")
		}
	}
}
