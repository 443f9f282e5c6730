package streamtok_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"streamtok"
	"streamtok/internal/analysis"
	"streamtok/internal/analysis/cert"
	"streamtok/internal/core"
	"streamtok/internal/machinefile"
	"streamtok/internal/tepath"
)

// TestCertificateCompat loads machine files committed under
// testdata/certcompat, written by an earlier build's SaveCompiled. Each
// must load; its file half must verify; the returned certificate must
// equal the one derived afresh from the engine this build constructs;
// and K and the ring must be unchanged. The stored engine half is not
// trusted: csv.mach was written when fused-k1 still built and counted
// the split K1 table, so it comes back recertified with exactly that
// table's bytes fewer; tsv.mach and yaml.mach were written when K=2
// grammars served from the pair-action tables (mode fused-general), so
// they come back recertified with the packed engine's mode and bytes
// (its words, and no TeDFA: the product folds B into its states).
// The other fixtures' engine halves still match.
func TestCertificateCompat(t *testing.T) {
	cases := []struct {
		file        string
		k           int
		mode        string
		ring        int
		table       int // as stored in the fixture
		recertified bool
		now         int // derived table bytes when recertified without the K1 table
	}{
		{"json.mach", 3, "fused-general", 4, 24140, false, 0},
		{"xml.mach", 6, "fused-general", 8, 168980, false, 0},
		{"csv.mach", 1, "fused-k1", 0, 1405, true, 0},
		{"rk12.mach", 12, "split-general-lazy", 12, 499, false, 0},
		{"tsv.mach", 2, "fused-k2", 2, 2780, true, 2040},
		{"yaml.mach", 2, "fused-k2", 2, 7359, true, 5467},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", "certcompat", c.file))
			if err != nil {
				t.Fatal(err)
			}
			mf, err := machinefile.Decode(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if mf.Cert == nil {
				t.Fatal("fixture carries no certificate")
			}
			if err := mf.Cert.VerifyStatic(mf.Machine, mf.MaxTND); err != nil {
				t.Fatalf("file half does not verify: %v", err)
			}
			if mf.Cert.TableBytes != c.table {
				t.Fatalf("fixture stores table %d, want %d", mf.Cert.TableBytes, c.table)
			}
			tok, _, err := streamtok.LoadCompiled(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("LoadCompiled refused a previously written file: %v", err)
			}
			got := tok.Certificate()

			inner, err := core.NewWithK(mf.Machine, mf.MaxTND, tepath.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := cert.New(mf.Machine, analysis.Analyze(mf.Machine), inner)
			if err != nil {
				t.Fatal(err)
			}
			want.Recertified = c.recertified
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("loaded certificate differs from the derived one:\n got  %+v\n want %+v", got, want)
			}
			if tok.K() != c.k || got.EngineMode != c.mode || got.RingBytes != c.ring {
				t.Errorf("k=%d mode=%s ring=%d, want k=%d mode=%s ring=%d",
					tok.K(), got.EngineMode, got.RingBytes, c.k, c.mode, c.ring)
			}
			wantTable := c.table
			if c.now != 0 {
				wantTable = c.now
			} else if c.recertified {
				wantTable -= tepath.BuildK1(mf.Machine).Bytes()
			} else if !reflect.DeepEqual(got, mf.Cert) {
				t.Errorf("certificate differs from the stored one:\n got  %+v\n want %+v", got, mf.Cert)
			}
			if got.TableBytes != wantTable {
				t.Errorf("table bytes %d, want %d", got.TableBytes, wantTable)
			}
		})
	}
}
