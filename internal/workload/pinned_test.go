package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/stream"
)

// digestWriter hashes a trace field by field: integers as 8 little-endian
// bytes, strings length-prefixed, so no two traces share an encoding.
type digestWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (d *digestWriter) int(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digestWriter) str(s string) {
	d.int(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digestWriter) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func tweetsDigest(tweets []Tweet) string {
	d := &digestWriter{h: sha256.New()}
	d.int(int64(len(tweets)))
	for _, tw := range tweets {
		d.int(tw.ID)
		d.int(tw.UserID)
		d.str(tw.Country)
		d.str(tw.Lang)
		d.str(tw.Topic)
		d.int(int64(tw.Time))
		d.int(int64(tw.CountryID))
		d.int(int64(tw.TopicID))
	}
	return d.sum()
}

func ysbDigest(events []AdEvent) string {
	d := &digestWriter{h: sha256.New()}
	d.int(int64(len(events)))
	for _, e := range events {
		d.int(e.UserID)
		d.int(e.PageID)
		d.int(e.AdID)
		d.str(e.AdType)
		d.int(int64(e.EventType))
		d.int(e.CampaignID)
		d.int(int64(e.Time))
	}
	return d.sum()
}

// streamDigest hashes the Key, KeyID and Time of every stream event.
func streamDigest(events []stream.Event) string {
	d := &digestWriter{h: sha256.New()}
	d.int(int64(len(events)))
	for _, e := range events {
		d.str(e.Key)
		d.int(int64(e.KeyID))
		d.int(int64(e.Time))
	}
	return d.sum()
}

// TestGeneratedTracesPinned holds the generators' output, every field of
// every event, to digests taken from the straightforward generator (one
// cosine per country per tweet). Any faster generator must reproduce these
// traces byte for byte: the record-mode oracles, the examples and the
// benchmark's output digest all replay them. The YSB traces' stream form
// (YSBStream: each event's Key, KeyID and Time) is pinned beside them.
func TestGeneratedTracesPinned(t *testing.T) {
	tweetCases := []struct {
		name string
		cfg  TwitterConfig
		want string
	}{
		{"diurnal seed 1", TwitterConfig{Seed: 1, Diurnal: true, Duration: 5 * time.Second},
			"3a8a9fb9f26bdb214e5ef16feb21b56713aed325def174f967b79e31c8bd6429"},
		{"diurnal seed 42", TwitterConfig{Seed: 42, Topics: 200, Rate: 8000, Diurnal: true, Duration: 5 * time.Second},
			"6ccb4be7817211019475ac9abb1f51379d0ee89a3435a3961f0d2e0797bf2286"},
		{"flat seed 1", TwitterConfig{Seed: 1, Duration: 5 * time.Second},
			"ac03b8093749f800183ef24e5966ac5e79e9b5508101799acb506560096b741b"},
		{"flat seed 42", TwitterConfig{Seed: 42, Topics: 200, Rate: 8000, Duration: 5 * time.Second},
			"ab9f4eb060441217e3fa48e22bb40142d5f9072be8b05a79bcd4e3ba761363c9"},
		// 48 h at 3 tweets/s crosses two day boundaries in every country.
		{"diurnal 48h", TwitterConfig{Seed: 5, Rate: 3, Diurnal: true, Duration: 48 * time.Hour},
			"2e9155650f571c02f1df6f469862fb51b17726ea86c1b966efcdfd647555f441"},
		// One tweet per hour for 96 h: each tweet sits in a cell of its own.
		{"diurnal 96h hourly", TwitterConfig{Seed: 9, Rate: 1.0 / 3600, Diurnal: true, Duration: 96 * time.Hour},
			"5d64ad64689259785371a91a805478019037ed87b6b50415cdb5be37a5226bfd"},
	}
	for _, tc := range tweetCases {
		if got := tweetsDigest(GenerateTweets(tc.cfg)); got != tc.want {
			t.Errorf("GenerateTweets %s: digest %s, want %s", tc.name, got, tc.want)
		}
	}

	ysbCases := []struct {
		name         string
		cfg          YSBConfig
		want, stream string
	}{
		{"seed 1", YSBConfig{Seed: 1, Duration: 5 * time.Second},
			"2b068ce0a67af3c9a1b51f8b7b5729966aa008ec17f8b32297e35af8ae31ada7",
			"6f0e51069773428747639b9b514c97b21f65a52fdb74ef147b615603bff90c85"},
		{"seed 42", YSBConfig{Seed: 42, Campaigns: 50, Rate: 8000, Duration: 5 * time.Second},
			"ea8c8ac19fd5607b1cc0cc21a5a9ca5ca6b792dee3e6925127ff508ff3308e9e",
			"31e5bf46fc678f045b374ca3194b14703caa90276a4d9a466c6c35e6a5de7280"},
	}
	for _, tc := range ysbCases {
		events := GenerateYSB(tc.cfg)
		if got := ysbDigest(events); got != tc.want {
			t.Errorf("GenerateYSB %s: digest %s, want %s", tc.name, got, tc.want)
		}
		if got := streamDigest(YSBStream(events)); got != tc.stream {
			t.Errorf("YSBStream %s: digest %s, want %s", tc.name, got, tc.stream)
		}
	}
}
