package hotspot_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"mtpu/internal/hotspot"
)

func TestContractTablePersistRoundTrip(t *testing.T) {
	_, _, traces := fixture(t, "TetherUSD", 30)
	table := hotspot.NewContractTable()
	for _, tr := range traces {
		table.Learn(tr)
	}

	blob, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	restored := hotspot.NewContractTable()
	if err := json.Unmarshal(blob, restored); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != table.Len() {
		t.Fatalf("entry count %d vs %d", restored.Len(), table.Len())
	}

	// Restored plans must be byte-identical in effect.
	for _, tr := range traces {
		p1 := table.Plan(tr)
		p2 := restored.Plan(tr)
		if p1.SkippedInstructions != p2.SkippedInstructions ||
			len(p1.Steps) != len(p2.Steps) {
			t.Fatalf("plans diverge after restore: %d/%d vs %d/%d",
				p1.SkippedInstructions, len(p1.Steps),
				p2.SkippedInstructions, len(p2.Steps))
		}
		for i := range p1.Steps {
			if p1.Steps[i] != p2.Steps[i] {
				t.Fatalf("step %d differs after restore", i)
			}
		}
	}

	// Serialization is deterministic.
	blob2, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("non-deterministic serialization")
	}
	blob3, err := json.Marshal(restored)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob3) {
		t.Fatal("round-trip changed the encoding")
	}
}

func TestContractTablePersistErrors(t *testing.T) {
	cases := []string{
		`{"not":"a list"}`,
		`[{"addr":"zz","selector":"a9059cbb"}]`,
		`[{"addr":"0000000000000000000000000000000000001001","selector":"a9"}]`,
		`[{"addr":"0000000000000000000000000000000000001001","selector":"a9059cbb","skip":[{"addr":"xx","pc":1}]}]`,
		`[{"addr":"0000000000000000000000000000000000001001","selector":"a9059cbb","prefetch":[{"addr":"0000000000000000000000000000000000001001","pc":1099511627776}]}]`,
		`[{"addr":"0000000000000000000000000000000000001001","selector":"a9059cbb","loadFrac":{"0000000000000000000000000000000000001001":7.5}}]`,
	}
	for i, c := range cases {
		table := hotspot.NewContractTable()
		if err := json.Unmarshal([]byte(c), table); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestEmptyTablePersist(t *testing.T) {
	blob, err := json.Marshal(hotspot.NewContractTable())
	if err != nil {
		t.Fatal(err)
	}
	restored := hotspot.NewContractTable()
	if err := json.Unmarshal(blob, restored); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 0 {
		t.Fatal("phantom entries")
	}
}
