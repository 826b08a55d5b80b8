package workload

import (
	"reflect"
	"testing"
	"time"
)

// Same seed, same stream — the property every experiment replay depends
// on: two identically-seeded generators must produce identical traces.

func TestGenerateYSBSameSeed(t *testing.T) {
	cfg := YSBConfig{Seed: 42, Rate: 500, Duration: 2 * time.Second}
	a := GenerateYSB(cfg)
	b := GenerateYSB(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("GenerateYSB not reproducible for the same seed")
	}
}

func TestGenerateTweetsSameSeed(t *testing.T) {
	cfg := TwitterConfig{Seed: 7, Rate: 500, Duration: 2 * time.Second, Diurnal: true}
	a := GenerateTweets(cfg)
	b := GenerateTweets(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("GenerateTweets not reproducible for the same seed")
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	a := GenerateYSB(YSBConfig{Seed: 1, Rate: 500, Duration: time.Second})
	b := GenerateYSB(YSBConfig{Seed: 2, Rate: 500, Duration: time.Second})
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical YSB streams")
	}
}
