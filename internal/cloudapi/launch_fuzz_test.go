package cloudapi

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"osdc/internal/iaas"
	"osdc/internal/sim"
)

// The launch-rejection oracle: a launch refused through a Remote, in the
// OpenStack JSON envelope or the EC2 XML one, must be refused with Local's
// error class, and read as Local's text exactly once after the Remote's
// own prefix; a launch Local accepts the Remote must accept alike.

// launchClass is the iaas class of a launch error, for errors.As.
func launchClass(err error) any {
	var q iaas.ErrQuota
	var c iaas.ErrCapacity
	switch {
	case errors.As(err, &q):
		return q
	case errors.As(err, &c):
		return c
	}
	return nil
}

// FuzzRemoteLaunchErrorsMatchLocal fuzzes the flavor, the image id and
// alice's quota state: a quota of maxInstances and maxCores (none set, the
// free tier, when both are 0) and held launches of the same flavor and
// image before the one compared. Local launches on one cloud and the
// Remote on a twin built alike, once per dialect.
func FuzzRemoteLaunchErrorsMatchLocal(f *testing.F) {
	f.Add("m1.small", "img-fuzz-1", uint8(1), uint8(100), uint8(1)) // over the instance limit
	f.Add("m1.large", "", uint8(0), uint8(0), uint8(1))             // over the free tier's cores
	f.Add("m1.xlarge", "img-fuzz-1", uint8(9), uint8(99), uint8(2)) // no host left
	f.Add("m1.tiny", "img-fuzz-1", uint8(9), uint8(99), uint8(0))
	f.Add("m1.small", "img-fuzz-2", uint8(9), uint8(99), uint8(0)) // a private image
	f.Add("m1.small", "img-none", uint8(9), uint8(99), uint8(0))
	f.Add("a\xffb", "img-fuzz-1", uint8(9), uint8(99), uint8(0)) // JSON would carry U+FFFD instead
	f.Fuzz(func(t *testing.T, flavor, image string, maxInstances, maxCores, held uint8) {
		if len(flavor) > 64 || len(image) > 64 {
			t.Skip("longer than any flavor or image id")
		}
		e := sim.NewEngine(1)
		for _, stack := range []string{"openstack", "eucalyptus"} {
			local, remote := newDialectRig(e, stack).local, newDialectRig(e, stack).remote
			for _, api := range []CloudAPI{local, remote} {
				if maxInstances != 0 || maxCores != 0 {
					q := iaas.Quota{MaxInstances: int(maxInstances), MaxCores: int(maxCores)}
					if err := api.SetQuota("alice", q); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < int(held%4); i++ {
					_, _ = api.Launch("alice", "held", flavor, image)
				}
			}
			want, errL := local.Launch("alice", "vm", flavor, image)
			got, errR := remote.Launch("alice", "vm", flavor, image)
			if errL == nil {
				if errR != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Launch(%q, %q): Local %+v, Remote %+v, %v", stack, flavor, image, want, got, errR)
				}
				continue
			}
			if errR == nil {
				t.Fatalf("%s: Launch(%q, %q): Local refused (%v), the Remote accepted", stack, flavor, image, errL)
			}
			if cl, cr := launchClass(errL), launchClass(errR); cl != cr {
				t.Fatalf("%s: Launch(%q, %q): Local's class %#v, the Remote's %#v", stack, flavor, image, cl, cr)
			}
			l, r := errL.Error(), errR.Error()
			if r != l && !(strings.HasPrefix(r, "cloudapi: fuzz") && strings.HasSuffix(r, ": "+l) && strings.Count(r, l) == 1) {
				t.Fatalf("%s: Launch(%q, %q):\nLocal : %s\nRemote: %s", stack, flavor, image, l, r)
			}
		}
	})
}
