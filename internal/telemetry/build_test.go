package telemetry

import (
	"strings"
	"testing"
)

func TestBuildInfoString(t *testing.T) {
	b := Build()
	if b.GoVersion == "" {
		t.Fatal("Build() must carry the toolchain version")
	}
	s := b.String()
	if !strings.Contains(s, b.GoVersion) {
		t.Errorf("String() = %q does not mention %q", s, b.GoVersion)
	}
	full := BuildInfo{
		GoVersion: "go1.24.0", Module: "mtpu", Version: "v1.2.3",
		VCSRevision: "0123456789abcdef0123", VCSTime: "2026-08-08T00:00:00Z", VCSModified: true,
	}
	got := full.String()
	want := "mtpu v1.2.3 (go1.24.0, rev 0123456789ab+dirty, 2026-08-08T00:00:00Z)"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestHostInfo(t *testing.T) {
	h := Host()
	if h.OS == "" || h.Arch == "" || h.NumCPU < 1 || h.GOMAXPROCS < 1 {
		t.Errorf("Host() = %+v is incomplete", h)
	}
}
