package cloudapi

import (
	"fmt"

	"osdc/internal/iaas"
)

// Local is the in-process CloudAPI backend: it wraps a *iaas.Cloud sharing
// the caller's engine, so every simulation scenario keeps its
// single-process determinism. Local and Remote must stay observably
// identical — the parity test in this package holds them to it.
type Local struct {
	C *iaas.Cloud
}

// NewLocal wraps an in-process cloud.
func NewLocal(c *iaas.Cloud) *Local { return &Local{C: c} }

// Name implements CloudAPI.
func (l *Local) Name() string { return l.C.Name }

// Stack implements CloudAPI.
func (l *Local) Stack() string { return l.C.Stack }

// view projects an iaas snapshot copy onto the federation-level record.
func view(i *iaas.Instance) Instance {
	return Instance{
		ID: i.ID, Name: i.Name, User: i.User,
		Flavor: i.Flavor.Name, Image: i.ImageID, Status: string(i.State),
	}
}

// Launch implements CloudAPI.
func (l *Local) Launch(user, name, flavor, image string) (Instance, error) {
	inst, err := l.C.Launch(user, name, flavor, image)
	if err != nil {
		return Instance{}, err
	}
	return view(inst), nil
}

// Terminate implements CloudAPI.
func (l *Local) Terminate(user, id string) error { return l.C.Terminate(user, id) }

// Stop implements CloudAPI.
func (l *Local) Stop(user, id string) error { return l.C.Stop(user, id) }

// Instances implements CloudAPI.
func (l *Local) Instances(user string) ([]Instance, error) {
	var out []Instance
	for _, i := range l.C.Instances(user) {
		out = append(out, view(i))
	}
	return out, nil
}

// Instance implements CloudAPI.
func (l *Local) Instance(id string) (Instance, error) {
	i, ok := l.C.Instance(id)
	if !ok {
		return Instance{}, ErrNotFound
	}
	return view(i), nil
}

// Images implements CloudAPI.
func (l *Local) Images(user string) ([]Image, error) {
	var out []Image
	for _, img := range l.C.Images(user) {
		out = append(out, Image{ID: img.ID, Name: img.Name, Public: img.Public})
	}
	return out, nil
}

// Flavors implements CloudAPI.
func (l *Local) Flavors() ([]iaas.Flavor, error) { return l.C.Flavors(), nil }

// SetQuota implements CloudAPI.
func (l *Local) SetQuota(user string, q iaas.Quota) error {
	l.C.SetQuota(user, q)
	return nil
}

// Usage implements CloudAPI. The rev is read before the footprint maps:
// a transition landing mid-sample carries a higher rev than the returned
// one, so a follow-up UsageSince(u.Rev) re-reports it instead of losing
// it.
func (l *Local) Usage() (Usage, error) {
	rev := l.C.UsageRev()
	byUser := l.C.RunningByUser()
	u := Usage{
		Rev:        rev,
		ByUser:     make(map[string]UserUsage, len(byUser)),
		UsedCores:  l.C.UsedCores(),
		TotalCores: l.C.TotalCores(),
	}
	for user, v := range byUser {
		u.ByUser[user] = UserUsage{Instances: v[0], Cores: v[1]}
	}
	return u, nil
}

// UsageSince implements CloudAPI over the iaas counter index.
func (l *Local) UsageSince(since int64) (UsageDelta, error) {
	if since < 0 {
		return UsageDelta{}, fmt.Errorf("cloudapi: bad usage since %d", since)
	}
	raw := l.C.UsageSince(since)
	d := UsageDelta{
		Rev:        raw.Rev,
		Removed:    raw.Removed,
		Reset:      raw.Reset,
		UsedCores:  l.C.UsedCores(),
		TotalCores: l.C.TotalCores(),
	}
	if raw.Changed != nil {
		d.Changed = make(map[string]UserUsage, len(raw.Changed))
		for user, v := range raw.Changed {
			d.Changed[user] = UserUsage{Instances: v[0], Cores: v[1]}
		}
	}
	return d, nil
}
