package streamtok_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"streamtok"
	"streamtok/internal/core"
	"streamtok/internal/machinefile"
	"streamtok/internal/tepath"
)

// TestCertificateCompat loads machine files committed under
// testdata/certcompat, written by an earlier build's SaveCompiled, and
// requires each stored certificate to verify against the engine this
// build reconstructs. A certificate binds the engine mode, ring bytes
// and table bytes, so a refactor of the engines or the token-extension
// tables that changed any of them would make previously deployed
// machine files refuse to load.
func TestCertificateCompat(t *testing.T) {
	cases := []struct {
		file  string
		k     int
		mode  string
		ring  int
		table int
	}{
		{"json.mach", 3, "fused-general", 4, 24140},
		{"xml.mach", 6, "fused-general", 8, 168980},
		{"csv.mach", 1, "fused-k1", 0, 1405},
		{"rk12.mach", 12, "split-general-lazy", 12, 499},
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
			tok, _, err := streamtok.LoadCompiled(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("LoadCompiled refused a previously written file: %v", err)
			}
			got := tok.Certificate()
			// The loader hands back the stored certificate only when
			// VerifyAgainst accepted it for the rebuilt engine.
			if !reflect.DeepEqual(got, mf.Cert) {
				t.Fatalf("loaded certificate differs from the stored one:\n got  %+v\n want %+v", got, mf.Cert)
			}
			if tok.K() != c.k || got.EngineMode != c.mode || got.RingBytes != c.ring || got.TableBytes != c.table {
				t.Errorf("k=%d mode=%s ring=%d table=%d, want k=%d mode=%s ring=%d table=%d",
					tok.K(), got.EngineMode, got.RingBytes, got.TableBytes, c.k, c.mode, c.ring, c.table)
			}
			inner, err := core.NewWithK(mf.Machine, mf.MaxTND, tepath.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			if err := mf.Cert.VerifyAgainst(inner); err != nil {
				t.Error(err)
			}
		})
	}
}
