package hotspot

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"mtpu/internal/types"
)

// Contract Table persistence (§3.4.1: "the execution path of hotspot
// contracts is persisted to the Contract Table"). Optimization results
// stay valid for the lifetime of a contract — deployed bytecode is
// immutable — so a node carries the table across block intervals and
// restarts. The format is stable JSON with hex-encoded keys.

type persistedEntry struct {
	Addr       string             `json:"addr"`
	Selector   string             `json:"selector"`
	PreExecLen int                `json:"preExecLen"`
	Samples    int                `json:"samples"`
	Skip       []persistedPC      `json:"skip,omitempty"`
	ConstOps   []persistedPC      `json:"constOps,omitempty"`
	Prefetch   []persistedPC      `json:"prefetch,omitempty"`
	LoadFrac   map[string]float64 `json:"loadFrac,omitempty"`
}

type persistedPC struct {
	Addr string `json:"addr"`
	PC   uint64 `json:"pc"`
}

// maxPersistedPC bounds the pcs a persisted table may name, because a
// row is as long as its largest pc. No code a block's gas can pay to
// run reaches it.
const maxPersistedPC = 1 << 24

// pcSetOut lists the (address, pc) pairs whose flags hold bit, sorted.
func pcSetOut(flags map[types.Address]pcFlags, bit uint8) []persistedPC {
	var out []persistedPC
	for addr, row := range flags {
		hexAddr := hex.EncodeToString(addr[:])
		for pc, f := range row {
			if f&bit != 0 {
				out = append(out, persistedPC{Addr: hexAddr, PC: uint64(pc)})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// pcSetIn sets bit in flags for every listed (address, pc) pair.
func pcSetIn(flags map[types.Address]pcFlags, list []persistedPC, bit uint8) error {
	for _, p := range list {
		raw, err := hex.DecodeString(p.Addr)
		if err != nil || len(raw) != types.AddressLength {
			return fmt.Errorf("hotspot: bad persisted address %q", p.Addr)
		}
		if p.PC >= maxPersistedPC {
			return fmt.Errorf("hotspot: persisted pc %d out of range", p.PC)
		}
		addr := types.BytesToAddress(raw)
		row := flags[addr].grown(p.PC)
		row[p.PC] |= bit
		flags[addr] = row
	}
	return nil
}

// MarshalJSON serializes the table deterministically.
func (t *ContractTable) MarshalJSON() ([]byte, error) {
	entries := make([]persistedEntry, 0, len(t.entries))
	for _, key := range t.Keys() {
		info := t.entries[key]
		e := persistedEntry{
			Addr:       hex.EncodeToString(key.Addr[:]),
			Selector:   hex.EncodeToString(key.Selector[:]),
			PreExecLen: info.PreExecLen,
			Samples:    info.Samples,
			Skip:       pcSetOut(info.Flags, pcSkip),
			ConstOps:   pcSetOut(info.Flags, pcConstOps),
			Prefetch:   pcSetOut(info.Flags, pcPrefetch),
			LoadFrac:   map[string]float64{},
		}
		for addr, f := range info.LoadFrac {
			e.LoadFrac[hex.EncodeToString(addr[:])] = f
		}
		entries = append(entries, e)
	}
	return json.Marshal(entries)
}

// UnmarshalJSON restores a table serialized by MarshalJSON.
func (t *ContractTable) UnmarshalJSON(data []byte) error {
	var entries []persistedEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return fmt.Errorf("hotspot: %w", err)
	}
	t.entries = make(map[Key]*PathInfo, len(entries))
	for _, e := range entries {
		rawAddr, err := hex.DecodeString(e.Addr)
		if err != nil || len(rawAddr) != types.AddressLength {
			return fmt.Errorf("hotspot: bad entry address %q", e.Addr)
		}
		rawSel, err := hex.DecodeString(e.Selector)
		if err != nil || len(rawSel) != 4 {
			return fmt.Errorf("hotspot: bad selector %q", e.Selector)
		}
		key := Key{Addr: types.BytesToAddress(rawAddr)}
		copy(key.Selector[:], rawSel)

		info := &PathInfo{
			Key:        key,
			PreExecLen: e.PreExecLen,
			Samples:    e.Samples,
			Flags:      make(map[types.Address]pcFlags),
			LoadFrac:   make(map[types.Address]float64, len(e.LoadFrac)),
		}
		if err := pcSetIn(info.Flags, e.Skip, pcSkip); err != nil {
			return err
		}
		if err := pcSetIn(info.Flags, e.ConstOps, pcConstOps); err != nil {
			return err
		}
		if err := pcSetIn(info.Flags, e.Prefetch, pcPrefetch); err != nil {
			return err
		}
		for addrHex, f := range e.LoadFrac {
			raw, err := hex.DecodeString(addrHex)
			if err != nil || len(raw) != types.AddressLength {
				return fmt.Errorf("hotspot: bad loadFrac address %q", addrHex)
			}
			if f <= 0 || f > 1 {
				return fmt.Errorf("hotspot: loadFrac %f out of range", f)
			}
			info.LoadFrac[types.BytesToAddress(raw)] = f
		}
		t.entries[key] = info
	}
	return nil
}
