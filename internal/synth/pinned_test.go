package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/trace"
)

// pinnedRecords is how much of each preset's stream TestSynthStreamsPinned
// hashes: more than a coherence benchmark core consumes per simulation.
const pinnedRecords = 200000

// Every preset's stream is pinned by SHA-256 at two seeds, so a change to
// how draws are produced or consumed that moves a single record fails
// here, before any coherence statistic moves. Each stream is hashed as
// Next returns it and as NextBatch fills it, in batches of varying size.
func TestSynthStreamsPinned(t *testing.T) {
	pinned := map[string][2]string{ // seed 1, seed 7
		"default":           {"9114b74e303de15f109713a6a61b9a5f3733143d7c2cde16db794ae5fda51382", "c5b4098fed16630db1ac11ff2de36b26f9379c218c5823df4392fcb10e2cbf97"},
		"fpstream":          {"2bb1298dcea44ccd82d1f33ac93d5816d20bff904f98d3dd3f6bf904100f805b", "e2f23430a4bda3cc7ea51eb354a38e916a7ec7a1cfb24ed1e13ef9a492338fc9"},
		"sharing":           {"d5554350d9bb8e062c621691609b873c3ba7cdc75a87f4124451794c1505793d", "ec9e9f7add8f7cb435062a8d732d3c3894f0c3288f3e01532cda0c5e942e3d76"},
		"producer-consumer": {"7f07016ccc637e56effbda75172c52df17b2552b60e02ee3879199eca7f94906", "92a6c109fceef6fd72520c90dd4b04208ffd77aaa43e9e55720fa7d0f6c8ee1c"},
		"migratory":         {"febf69543a1eade5e2be85db8f3e30000807ed2c548a020f75e1334e4d923605", "fbfb1c85361dafa2575685772d5008010a0ba47a37187132a79aec8c55d986b2"},
		"false-sharing":     {"c158f12fdeb0551a2c47754acf25794a21feecea21d923733628362a4f716a46", "7622530b7995f97d823957ccf36abc3480589ab2fa0165bb2fa812ee8410c32c"},
	}
	if len(pinned) != len(presets) {
		t.Fatalf("%d presets pinned, %d registered", len(pinned), len(presets))
	}
	for _, pr := range presets {
		want, ok := pinned[pr.Name]
		if !ok {
			t.Errorf("%s: no pinned digest", pr.Name)
			continue
		}
		for i, seed := range [2]int64{1, 7} {
			p := pr.Params()
			p.Seed = seed
			for _, batched := range []bool{false, true} {
				if got := streamDigest(New(p), batched); got != want[i] {
					t.Errorf("%s seed %d (batched %v): digest %s, pinned %s", pr.Name, seed, batched, got, want[i])
				}
			}
		}
	}
}

func streamDigest(g trace.Generator, batched bool) string {
	h := sha256.New()
	var b []byte
	buf := make([]trace.Record, 97)
	for n, size := 0, 1; n < pinnedRecords; n, size = n+size, size%len(buf)+1 {
		size = min(size, pinnedRecords-n)
		if batched {
			if g.(trace.BatchGenerator).NextBatch(buf[:size]) != size {
				return "ended early"
			}
		} else {
			for i := range buf[:size] {
				r, ok := g.Next()
				if !ok {
					return "ended early"
				}
				buf[i] = r
			}
		}
		for _, r := range buf[:size] {
			b = appendRecord(b[:0], r)
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func appendRecord(b []byte, r trace.Record) []byte {
	in := r.Inst
	b = append(b, byte(in.Op), byte(in.Dst.Class), in.Dst.Index,
		byte(in.Src1.Class), in.Src1.Index, byte(in.Src2.Class), in.Src2.Index,
		boolByte(r.Taken), boolByte(r.HasValues))
	for _, v := range [...]uint64{uint64(in.Imm), uint64(in.Target), uint64(r.Seq), uint64(r.PC),
		r.EA, uint64(r.NextPC), r.DstVal, r.Src1Val, r.Src2Val} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}
