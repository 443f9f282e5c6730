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
// the split K1 table, so it comes back recertified without that table
// (and with the SWAR scan's larger accel infos, 120 B each where they
// were 40); tsv.mach, yaml.mach, json.mach and xml.mach were
// written when K ≥ 2 grammars served from the retired pair-action tables
// (mode fused-general), so they come back recertified: tsv, yaml and
// json with the packed engine's mode and bytes (its words, and no TeDFA:
// the product folds B into its states), xml, whose product passes the
// construction's work bound, with the split Fig. 6 loop's (A and the
// eager TeDFA, a k-byte ring in place of the pair-action loop's
// power-of-two one). The other fixture's engine half still matches.
// TestResumeFusedGeneralCursor resumes cursors on the json and xml
// files.
func TestCertificateCompat(t *testing.T) {
	cases := []struct {
		file        string
		k           int
		mode        string
		ring        int
		table       int // as stored in the fixture
		recertified bool
		now         int // derived table bytes when recertified
	}{
		{"json.mach", 3, "fused-k3", 3, 24140, true, 35416},
		{"xml.mach", 6, "split-general", 6, 168980, true, 50964},
		{"csv.mach", 1, "fused-k1", 0, 1405, true, 1141},
		{"rk12.mach", 12, "split-general-lazy", 12, 499, false, 0},
		{"tsv.mach", 2, "fused-k2", 2, 2780, true, 2200},
		{"yaml.mach", 2, "fused-k2", 2, 7359, true, 5947},
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
			} else if !reflect.DeepEqual(got, mf.Cert) {
				t.Errorf("certificate differs from the stored one:\n got  %+v\n want %+v", got, mf.Cert)
			}
			if got.TableBytes != wantTable {
				t.Errorf("table bytes %d, want %d", got.TableBytes, wantTable)
			}
		})
	}
}
