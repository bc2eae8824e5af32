package udr

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"osdc/internal/cipher"
	"osdc/internal/sim"
	"osdc/internal/simnet"
	"osdc/internal/transport"
)

// --- rsync algorithm ---

func TestWeakSumRollEquivalence(t *testing.T) {
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i*37 + 11)
	}
	const w = 64
	sum := weakSum(data[0:w])
	for i := 1; i+w <= len(data); i++ {
		sum = roll(sum, data[i-1], data[i+w-1], w)
		if want := weakSum(data[i : i+w]); sum != want {
			t.Fatalf("rolled sum at %d = %08x, want %08x", i, sum, want)
		}
	}
}

func TestDeltaIdenticalFilesAllCopies(t *testing.T) {
	data := bytes.Repeat([]byte("scientific data "), 1000)
	sigs := Signatures(data, 512)
	d := ComputeDelta(sigs, 512, data)
	if d.LiteralBytes() != 0 {
		t.Fatalf("identical file produced %d literal bytes", d.LiteralBytes())
	}
	out, err := Apply(data, d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("rebuild differs")
	}
	// Wire size should be tiny relative to the file.
	if d.WireSize() > int64(len(data))/10 {
		t.Fatalf("wire size %d too large for identical file of %d", d.WireSize(), len(data))
	}
}

func TestDeltaSmallEdit(t *testing.T) {
	old := bytes.Repeat([]byte("abcdefgh"), 4096) // 32 KB
	new := append([]byte(nil), old...)
	copy(new[10000:], []byte("MUTATION"))
	sigs := Signatures(old, 1024)
	d := ComputeDelta(sigs, 1024, new)
	out, err := Apply(old, d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, new) {
		t.Fatal("rebuild differs after edit")
	}
	// Only the damaged block should travel as literals.
	if d.LiteralBytes() > 2048 {
		t.Fatalf("literal bytes = %d, want ≤ one block region", d.LiteralBytes())
	}
}

func TestDeltaInsertionShiftsHandled(t *testing.T) {
	old := bytes.Repeat([]byte("0123456789abcdef"), 2048)
	new := append([]byte("INSERTED-PREFIX:"), old...)
	sigs := Signatures(old, 1024)
	d := ComputeDelta(sigs, 1024, new)
	out, err := Apply(old, d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, new) {
		t.Fatal("rebuild differs after insertion")
	}
	// Rolling checksum must re-find alignment: literals ≈ the insertion,
	// not the whole file.
	if d.LiteralBytes() > int64(len("INSERTED-PREFIX:"))+1024 {
		t.Fatalf("literal bytes = %d; rolling match failed to realign", d.LiteralBytes())
	}
}

func TestDeltaAgainstEmptyOldIsAllLiteral(t *testing.T) {
	data := []byte("fresh file with no prior copy")
	d := ComputeDelta(nil, 512, data)
	if d.LiteralBytes() != int64(len(data)) {
		t.Fatalf("literals = %d, want full file", d.LiteralBytes())
	}
	out, err := Apply(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("rebuild differs")
	}
}

func TestDeltaPropertyRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(func(oldSeed, newSeed []byte, mutate bool) bool {
		old := bytes.Repeat(oldSeed, 50)
		var data []byte
		if mutate && len(old) > 0 {
			data = append(append([]byte(nil), old...), newSeed...)
		} else {
			data = bytes.Repeat(newSeed, 30)
		}
		sigs := Signatures(old, 128)
		d := ComputeDelta(sigs, 128, data)
		out, err := Apply(old, d)
		return err == nil && bytes.Equal(out, data)
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSignaturesShortTailBlock(t *testing.T) {
	data := make([]byte, 1000) // not a multiple of 512
	sigs := Signatures(data, 512)
	if len(sigs) != 2 {
		t.Fatalf("got %d signatures, want 2", len(sigs))
	}
	d := ComputeDelta(sigs, 512, data)
	if d.LiteralBytes() != 0 {
		t.Fatalf("tail block not matched: %d literal bytes", d.LiteralBytes())
	}
}

func TestApplyRejectsBadBlockRef(t *testing.T) {
	d := Delta{Ops: []Op{{BlockIndex: 99}}, BlockSize: 512, NewLen: 512}
	if _, err := Apply([]byte("short"), d); err == nil {
		t.Fatal("expected error for out-of-range block reference")
	}
}

// --- sync planning ---

func TestPlanSyncNewFilesTravelWhole(t *testing.T) {
	src := FileSet{"a.dat": bytes.Repeat([]byte{1}, 10000)}
	dst := FileSet{}
	plan, err := PlanSync(src, dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.WireBytes != 10000 {
		t.Fatalf("wire = %d, want 10000", plan.WireBytes)
	}
	if !bytes.Equal(dst["a.dat"], src["a.dat"]) {
		t.Fatal("dst not synced")
	}
}

func TestPlanSyncUnchangedFileCheap(t *testing.T) {
	content := bytes.Repeat([]byte("stable"), 20000)
	src := FileSet{"b.dat": content}
	dst := FileSet{"b.dat": append([]byte(nil), content...)}
	plan, err := PlanSync(src, dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.WireBytes >= int64(len(content))/5 {
		t.Fatalf("unchanged file moved %d of %d bytes", plan.WireBytes, len(content))
	}
	if !plan.Files[0].Unchanged {
		t.Fatal("file not flagged unchanged")
	}
}

func TestPlanSyncMutatesDstToMatchSrc(t *testing.T) {
	src := FileSet{
		"x": []byte("new content x"),
		"y": bytes.Repeat([]byte("yy"), 5000),
	}
	dst := FileSet{
		"y":    bytes.Repeat([]byte("yy"), 4000),
		"only": []byte("untouched"),
	}
	if _, err := PlanSync(src, dst, 256); err != nil {
		t.Fatal(err)
	}
	for p, want := range src {
		if !bytes.Equal(dst[p], want) {
			t.Fatalf("dst[%s] differs after sync", p)
		}
	}
	if string(dst["only"]) != "untouched" {
		t.Fatal("sync deleted unrelated destination file")
	}
}

// --- Table 3 behaviour ---

func chicagoLVOC() transport.Path {
	nw := simnet.BuildOSDCTopology(simnet.DefaultWAN())
	simnet.AttachHost(nw, "adler", simnet.SiteChicagoKenwood)
	simnet.AttachHost(nw, "lvoc1", simnet.SiteLVOC)
	return transport.PathBetween(nw, "adler", "lvoc1")
}

func TestTable3RowOrdering(t *testing.T) {
	path := chicagoLVOC()
	rng := sim.NewRNG(2012)
	const size = 108 << 30 // the 108 GB dataset
	speeds := map[Config]float64{}
	for _, cfg := range Table3Configs() {
		res, _ := Transfer(rng, cfg, path, size)
		speeds[cfg] = res.ThroughputMbit()
	}
	udrPlain := speeds[Config{ToolUDR, cipher.None}]
	rsyncPlain := speeds[Config{ToolRsync, cipher.None}]
	udrBF := speeds[Config{ToolUDR, cipher.Blowfish}]
	rsyncBF := speeds[Config{ToolRsync, cipher.Blowfish}]
	rsync3DES := speeds[Config{ToolRsync, cipher.TripleDES}]

	// Paper Table 3 orderings.
	if !(udrPlain > rsyncPlain && udrBF > rsyncBF) {
		t.Fatalf("UDR must beat rsync: %v", speeds)
	}
	if !(udrPlain > udrBF) {
		t.Fatalf("encryption must slow UDR: plain %.0f vs bf %.0f", udrPlain, udrBF)
	}
	// Paper: UDR plain ≈ 1.87× rsync plain.
	if ratio := udrPlain / rsyncPlain; ratio < 1.5 || ratio > 2.3 {
		t.Fatalf("UDR/rsync plain ratio = %.2f, want ~1.87", ratio)
	}
	// Paper: rsync blowfish ≈ rsync 3des (ssh window binds both).
	if math.Abs(rsyncBF-rsync3DES)/rsyncBF > 0.1 {
		t.Fatalf("encrypted rsync rows should be near-equal: bf=%.0f 3des=%.0f", rsyncBF, rsync3DES)
	}
}

func TestTable3AbsoluteBands(t *testing.T) {
	path := chicagoLVOC()
	rng := sim.NewRNG(7)
	const size = 20 << 30 // smaller size for test speed; rates are steady
	check := func(cfg Config, lo, hi float64) {
		res, caps := Transfer(rng, cfg, path, size)
		mb := res.ThroughputMbit()
		if mb < lo || mb > hi {
			t.Errorf("%s = %.0f Mbit/s, want [%v, %v]", cfg, mb, lo, hi)
		}
		llr := res.LLR(caps)
		if llr <= 0 || llr > 1 {
			t.Errorf("%s LLR = %.2f out of (0,1]", cfg, llr)
		}
	}
	check(Config{ToolUDR, cipher.None}, 700, 780)        // paper: 752/738
	check(Config{ToolRsync, cipher.None}, 380, 420)      // paper: 401/405
	check(Config{ToolUDR, cipher.Blowfish}, 370, 400)    // paper: 394/396
	check(Config{ToolRsync, cipher.Blowfish}, 255, 290)  // paper: 280/281
	check(Config{ToolRsync, cipher.TripleDES}, 255, 295) // paper: 284/285
}

func TestTransferSizeIndependence(t *testing.T) {
	// Paper: 108 GB and 1.1 TB give nearly identical speeds.
	path := chicagoLVOC()
	cfg := Config{ToolUDR, cipher.None}
	a, _ := Transfer(sim.NewRNG(1), cfg, path, 10<<30)
	b, _ := Transfer(sim.NewRNG(2), cfg, path, 100<<30)
	if math.Abs(a.ThroughputMbit()-b.ThroughputMbit())/a.ThroughputMbit() > 0.05 {
		t.Fatalf("speeds size-dependent: %.0f vs %.0f", a.ThroughputMbit(), b.ThroughputMbit())
	}
}

func TestSyncOverMovesOnlyDelta(t *testing.T) {
	path := chicagoLVOC()
	content := bytes.Repeat([]byte("genome-read-"), 100000) // 1.2 MB
	src := FileSet{"reads.fastq": content}
	dst := FileSet{"reads.fastq": append([]byte(nil), content...)}
	// Mutate 1 KB in src.
	copy(src["reads.fastq"][500000:], bytes.Repeat([]byte("X"), 1024))
	plan, res, err := SyncOver(sim.NewRNG(3), Config{ToolUDR, cipher.None}, path, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if plan.WireBytes >= int64(len(content))/2 {
		t.Fatalf("sync moved %d bytes for a 1 KB edit of %d", plan.WireBytes, len(content))
	}
	if !bytes.Equal(dst["reads.fastq"], src["reads.fastq"]) {
		t.Fatal("dst not synced")
	}
	if res.Duration <= 0 {
		t.Fatal("no transfer time simulated")
	}
}

func TestEncryptedPipelineRoundTrip(t *testing.T) {
	// The cipher layer composes with the delta layer: encrypt a delta's
	// literals, decrypt, apply — bytes must survive.
	old := bytes.Repeat([]byte("block"), 4000)
	new := append(append([]byte(nil), old[:9000]...), []byte("EDIT")...)
	new = append(new, old[9000:]...)
	sigs := Signatures(old, 512)
	d := ComputeDelta(sigs, 512, new)
	enc, _ := cipher.NewStream(cipher.Blowfish, []byte("k"), []byte("iv"))
	dec, _ := cipher.NewStream(cipher.Blowfish, []byte("k"), []byte("iv"))
	for i, op := range d.Ops {
		if op.Literal != nil {
			ct := make([]byte, len(op.Literal))
			enc.Process(ct, op.Literal)
			pt := make([]byte, len(ct))
			dec.Process(pt, ct)
			d.Ops[i].Literal = pt
		}
	}
	out, err := Apply(old, d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, new) {
		t.Fatal("encrypted delta pipeline corrupted data")
	}
}

func TestFileSetHelpers(t *testing.T) {
	fs := FileSet{"b": []byte("22"), "a": []byte("1")}
	paths := fs.Paths()
	if len(paths) != 2 || paths[0] != "a" || paths[1] != "b" {
		t.Fatalf("Paths = %v", paths)
	}
	if fs.TotalBytes() != 3 {
		t.Fatalf("TotalBytes = %d, want 3", fs.TotalBytes())
	}
}
