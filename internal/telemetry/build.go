package telemetry

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// BuildInfo is the binary fingerprint stamped into -version output and
// JSON artifacts: which toolchain and which commit produced the
// numbers. Populated from debug.ReadBuildInfo, so
// VCS fields are empty for `go run`/`go test` builds (no embedded VCS
// stamp) and filled for `go build` from a git checkout.
type BuildInfo struct {
	GoVersion   string `json:"go_version"`
	Module      string `json:"module,omitempty"`
	Version     string `json:"version,omitempty"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
}

// Build returns the running binary's build fingerprint.
func Build() BuildInfo {
	b := BuildInfo{GoVersion: runtime.Version()}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	b.Module = info.Main.Path
	b.Version = info.Main.Version
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			b.VCSRevision = s.Value
		case "vcs.time":
			b.VCSTime = s.Value
		case "vcs.modified":
			b.VCSModified = s.Value == "true"
		}
	}
	return b
}

// String renders the fingerprint for -version output.
func (b BuildInfo) String() string {
	var sb strings.Builder
	mod := b.Module
	if mod == "" {
		mod = "mtpu"
	}
	ver := b.Version
	if ver == "" || ver == "(devel)" {
		ver = "devel"
	}
	fmt.Fprintf(&sb, "%s %s (%s", mod, ver, b.GoVersion)
	if b.VCSRevision != "" {
		rev := b.VCSRevision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		fmt.Fprintf(&sb, ", rev %s", rev)
		if b.VCSModified {
			sb.WriteString("+dirty")
		}
		if b.VCSTime != "" {
			fmt.Fprintf(&sb, ", %s", b.VCSTime)
		}
	}
	sb.WriteString(")")
	return sb.String()
}

// HostInfo fingerprints the machine a measurement ran on — the
// context without which host-side throughput numbers cannot be
// compared across runs.
type HostInfo struct {
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model,omitempty"`
}

// Host returns the current machine's fingerprint.
func Host() HostInfo {
	return HostInfo{
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
	}
}

// cpuModel extracts the CPU model string from /proc/cpuinfo (empty on
// platforms without it — it is a label, not a dependency).
func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok &&
			strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}
