package frontier

import (
	"testing"

	"repro/internal/fingerprint"
)

func TestVisitedSetAddAndSeen(t *testing.T) {
	v := NewSeqVisited(DedupStrings)
	var zero fingerprint.Digest
	if v.Seen(zero, "a") {
		t.Fatal("fresh set claims to have seen a key")
	}
	if !v.Admit(zero, "a") || v.Admit(zero, "a") {
		t.Fatal("Admit must report new exactly once")
	}
	if !v.Seen(zero, "a") || v.Seen(zero, "b") {
		t.Fatal("Seen disagrees with Admit history")
	}
}

func TestFPVisitedSet(t *testing.T) {
	v := NewSeqVisited(DedupFingerprint)
	d1, d2 := fingerprint.OfString("a"), fingerprint.OfString("b")
	if v.Seen(d1, "") {
		t.Fatal("empty set claims to have seen a digest")
	}
	if !v.Admit(d1, "") {
		t.Fatal("first Admit reported not-new")
	}
	// Fingerprint mode compares digests only: a different key under the
	// same digest is the same node.
	if v.Admit(d1, "other") {
		t.Fatal("second Admit reported new")
	}
	if !v.Seen(d1, "") || v.Seen(d2, "") {
		t.Fatal("Seen disagrees with Admit history")
	}
	if v.Collisions() != 0 {
		t.Fatalf("Collisions = %d, want 0", v.Collisions())
	}
}

func TestFPVerifiedSet(t *testing.T) {
	v := NewSeqVisited(DedupVerified)
	d := fingerprint.OfString("shared")
	if v.Seen(d, "k1") {
		t.Fatal("empty verified set claims prior sightings")
	}
	if !v.Admit(d, "k1") {
		t.Fatal("first Admit reported not-new")
	}
	if v.Admit(d, "k1") {
		t.Fatal("duplicate Admit reported new")
	}
	if !v.Seen(d, "k1") || v.Seen(d, "k2") {
		t.Fatal("Seen disagrees with Admit history")
	}
	if v.Collisions() != 0 {
		t.Fatalf("collisions = %d before any", v.Collisions())
	}
	// A second key under the same digest is a detected collision, and the
	// colliding key is admitted as new rather than merged away.
	if !v.Admit(d, "k2") {
		t.Fatal("colliding key was merged instead of admitted")
	}
	if v.Collisions() != 1 {
		t.Fatalf("collisions = %d, want 1", v.Collisions())
	}
	if !v.Seen(d, "k1") || !v.Seen(d, "k2") {
		t.Fatal("colliding keys not both found afterwards")
	}
}

func TestDedupString(t *testing.T) {
	names := map[Dedup]string{
		DedupFingerprint: "fingerprint",
		DedupVerified:    "verified",
		DedupStrings:     "strings",
		Dedup(99):        "invalid",
	}
	for d, want := range names { //ccvet:ignore detrange independent assertions; order is unobservable
		if d.String() != want {
			t.Fatalf("Dedup(%d).String() = %q, want %q", int(d), d.String(), want)
		}
	}
}
