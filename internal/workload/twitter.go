package workload

import (
	"math"
	"math/rand"
	"time"

	"github.com/wasp-stream/wasp/internal/stream"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// Tweet is one synthetic geo-tagged tweet.
type Tweet struct {
	ID      int64
	UserID  int64
	Country string
	Lang    string
	Topic   string
	Time    vclock.Time
	// CountryID and TopicID are the stream key ids (see keyID) of Country
	// and Topic; the generator fills them, and a tweet built without them
	// (0: no id) is keyed by the strings alone.
	CountryID uint32
	TopicID   uint32
}

// Country captures the spatial skew of the synthetic Twitter trace: a
// weight (share of global volume) and a UTC offset driving its local
// day/night cycle.
type Country struct {
	Code      string
	Weight    float64
	UTCOffset time.Duration
	Lang      string
}

// countries approximates the global Twitter geography reported by
// Leetaru et al. (cited in §2.2): a few countries dominate volume, spread
// across time zones.
var countries = [...]Country{
	{Code: "us", Weight: 0.30, UTCOffset: -6 * time.Hour, Lang: "en"},
	{Code: "jp", Weight: 0.15, UTCOffset: 9 * time.Hour, Lang: "ja"},
	{Code: "gb", Weight: 0.10, UTCOffset: 0, Lang: "en"},
	{Code: "br", Weight: 0.10, UTCOffset: -3 * time.Hour, Lang: "pt"},
	{Code: "id", Weight: 0.10, UTCOffset: 7 * time.Hour, Lang: "id"},
	{Code: "in", Weight: 0.10, UTCOffset: 5*time.Hour + 30*time.Minute, Lang: "hi"},
	{Code: "de", Weight: 0.08, UTCOffset: time.Hour, Lang: "de"},
	{Code: "fr", Weight: 0.07, UTCOffset: time.Hour, Lang: "fr"},
}

// zipfS is the exponent of the Zipfian topic popularity.
const zipfS = 1.2

// TwitterConfig parameterises the tweet generator.
type TwitterConfig struct {
	Seed int64
	// Topics is the topic vocabulary size (default 1000); popularity is
	// Zipfian.
	Topics int
	// Rate is global tweets/s (default 10000).
	Rate float64
	// Diurnal applies the 2× day/night pattern per country's local time
	// when true.
	Diurnal bool
	// Duration bounds the generated event times to [0, Duration).
	Duration time.Duration
}

func (c TwitterConfig) withDefaults() TwitterConfig {
	if c.Topics == 0 {
		c.Topics = 1000
	}
	if c.Rate == 0 {
		c.Rate = 10000
	}
	return c
}

// GenerateTweets produces a time-ordered synthetic tweet trace. The trace
// is a pure function of cfg (randomness comes from a fresh source seeded
// with cfg.Seed).
func GenerateTweets(cfg TwitterConfig) []Tweet {
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := cfg.withDefaults()
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(c.Topics-1))
	topics := newKeyTable("t%04d")

	var totalWeight float64
	for _, country := range countries {
		totalWeight += country.Weight
	}

	n := int(c.Rate * c.Duration.Seconds())
	tweets := make([]Tweet, 0, n)
	interval := vclock.Time(float64(time.Second) / c.Rate)
	var at vclock.Time
	for i := 0; i < n; i++ {
		ci := pickCountry(rng, totalWeight, at, c.Diurnal)
		// The rng order is the order below: the user id is drawn before the
		// topic.
		userID := rng.Int63n(1 << 20)
		topic := int64(zipf.Uint64())
		tweets = append(tweets, Tweet{
			ID:        int64(i),
			UserID:    userID,
			Country:   countries[ci].Code,
			Lang:      countries[ci].Lang,
			Topic:     topics.key(topic),
			Time:      at,
			CountryID: keyID(int64(ci)),
			TopicID:   keyID(topic),
		})
		at += interval
	}
	return tweets
}

// pickCountry samples a country (its index in countries) by weight,
// modulated by each country's local diurnal factor when enabled (day hours
// carry 2× the night volume).
func pickCountry(rng *rand.Rand, totalWeight float64, at vclock.Time, diurnal bool) int {
	if !diurnal {
		x := rng.Float64() * totalWeight
		for i, c := range countries {
			x -= c.Weight
			if x <= 0 {
				return i
			}
		}
		return len(countries) - 1
	}
	var weights [len(countries)]float64
	var sum float64
	for i, c := range countries {
		weights[i] = c.Weight * diurnalFactor(at, c.UTCOffset)
		sum += weights[i]
	}
	x := rng.Float64() * sum
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return i
		}
	}
	return len(countries) - 1
}

// diurnalFactor returns the 2×-day/1×-night raised-cosine factor for a
// country's local time-of-day (mean 1 over a day).
func diurnalFactor(at vclock.Time, utcOffset time.Duration) float64 {
	local := at + vclock.Time(utcOffset)
	day := vclock.Time(24 * time.Hour)
	phase := float64(((local%day)+day)%day) / float64(day)
	// Trough at local 03:00, peak at 15:00; amplitude 1/3 gives a 2:1
	// peak/trough ratio around mean 1.
	const amp = 1.0 / 3
	return 1 - amp*math.Cos(2*math.Pi*(phase-3.0/24))
}

// TweetStream converts tweets into stream events keyed by country.
func TweetStream(tweets []Tweet) []stream.Event {
	out := make([]stream.Event, len(tweets))
	for i, tw := range tweets {
		out[i] = stream.Event{Time: tw.Time, Key: tw.Country, KeyID: tw.CountryID, Value: tw}
	}
	return out
}

// CountryShares returns the fraction of tweets per country.
func CountryShares(tweets []Tweet) map[string]float64 {
	counts := make(map[string]float64)
	for _, tw := range tweets {
		counts[tw.Country]++
	}
	for k := range counts {
		counts[k] /= float64(len(tweets))
	}
	return counts
}
