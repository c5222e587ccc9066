package difftest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"mtpu/internal/workload"
)

// Reproducer is the corpus file format: a shrunk failing spec plus the
// triage context (which engine diverged and how). The spec alone is
// enough to replay it — `mtpu-run -diff FILE` accepts either a bare
// Spec or a Reproducer.
type Reproducer struct {
	Engine string `json:"engine,omitempty"`
	Error  string `json:"error,omitempty"`
	Spec   Spec   `json:"spec"`
}

// ParseSpecFile strictly decodes a corpus file, accepting either a
// Reproducer envelope or a bare Spec.
func ParseSpecFile(data []byte) (Spec, error) {
	if probe := struct {
		Spec *Spec `json:"spec"`
	}{}; json.Unmarshal(data, &probe) == nil && probe.Spec != nil {
		var rep Reproducer
		if err := strictDecode(data, &rep); err != nil {
			return Spec{}, err
		}
		return rep.Spec, rep.Spec.Validate()
	}
	var s Spec
	if err := strictDecode(data, &s); err != nil {
		return Spec{}, err
	}
	return s, s.Validate()
}

// LoadGrid reads a checked-in spec grid: a JSON array of Specs.
func LoadGrid(path string) ([]Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var specs []Spec
	if err := strictDecode(data, &specs); err != nil {
		return nil, fmt.Errorf("difftest: grid %s: %w", path, err)
	}
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("difftest: grid %s entry %d: %w", path, i, err)
		}
	}
	return specs, nil
}

func strictDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// WriteReproducer shrinks the failure and writes it under dir as a
// deterministically-named corpus file, returning the path. CI uploads
// the directory as an artifact, so a red diff run always ships its
// minimal reproducers.
func (h *Harness) WriteReproducer(dir string, f Failure) (string, error) {
	shrunk := h.Shrink(f)
	rep := Reproducer{Engine: f.Engine, Error: f.Err.Error(), Spec: shrunk}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("diff-%s-%s-%d.json", sanitize(f.Engine), sanitize(label(shrunk.Workload)), shrunk.Workload.Seed)
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// label names a workload in reproducer file names and grid subtests:
// its kind for a single block, "stream" for the token chain and
// "scenario-<kind>" for a scenario, so a chain never shares a name with
// a single block of the same kind and seed.
func label(w workload.Spec) string {
	switch {
	case w.Blocks == 0:
		return w.Kind
	case w.Kind == "token":
		return "stream"
	default:
		return "scenario-" + w.Kind
	}
}

func sanitize(name string) string {
	out := []byte(name)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// CorpusSpecs loads every *.json spec under dir, sorted by name — the
// fuzz seeds and the smoke sweep's corner cases.
func CorpusSpecs(dir string) ([]Spec, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	specs := make([]Spec, 0, len(names))
	for _, n := range names {
		data, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return nil, err
		}
		s, err := ParseSpecFile(data)
		if err != nil {
			return nil, fmt.Errorf("difftest: corpus %s: %w", n, err)
		}
		specs = append(specs, s)
	}
	return specs, nil
}
