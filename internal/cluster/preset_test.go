package cluster

import (
	"reflect"
	"testing"

	"repro/internal/beegfs"
	"repro/internal/storagesim"
)

// TestPresetsPinned holds every platform builder to its calibration, field
// for field: the expected platforms are spelled out literally, so a change
// to the shared preset base shows up as a diff here rather than as a shift
// in a figure.
func TestPresetsPinned(t *testing.T) {
	pattern := func(count int) beegfs.StripePattern {
		return beegfs.StripePattern{Count: count, ChunkSize: 512 * beegfs.KiB}
	}
	custom, err := Custom("site", 3, 1, 2500, &beegfs.RandomChooser{})
	if err != nil {
		t.Fatal(err)
	}
	spec := FatTreeSpec{Racks: 3, OSSPerRack: 2, TargetsPerOSS: 2, LinkRate: 1250, UplinkRate: 2500}
	fatTree, err := FatTree("ft", spec)
	if err != nil {
		t.Fatal(err)
	}
	fatTreeCore, err := FatTreeCore("ftc", spec)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		got, want Platform
	}{
		{"PlaFRIM scenario 1", PlaFRIM(Scenario1Ethernet), Platform{
			Name: "plafrim-scenario1",
			FS: beegfs.Config{
				Storage:           storagesim.PlaFRIMConfig(),
				Hosts:             2,
				TargetsPerHost:    4,
				ServerNICCapacity: 1100,
				DefaultPattern:    pattern(4),
				Chooser:           &beegfs.RoundRobinChooser{},
				CreateLatency:     0.02,
				OpenLatency:       0.005,
				PpnSat:            8,
				ClientA:           880,
				ClientGamma:       0.45,
				RetryTimeout:      0.5,
				RetryMax:          8,
			},
			ClientNICCapacity: 1100,
			ServerNICJitterCV: 0.02,
			SetupMean:         0.15,
			SetupCV:           0.5,
		}},
		{"PlaFRIM scenario 2", PlaFRIM(Scenario2Omnipath), Platform{
			Name: "plafrim-scenario2",
			FS: beegfs.Config{
				Storage:           storagesim.PlaFRIMConfig(),
				Hosts:             2,
				TargetsPerHost:    4,
				ServerNICCapacity: 11000,
				DefaultPattern:    pattern(4),
				Chooser:           &beegfs.RoundRobinChooser{},
				CreateLatency:     0.02,
				OpenLatency:       0.005,
				PpnSat:            8,
				IntraNodePenalty:  0.1,
				ClientA:           1631,
				ClientGamma:       0.45,
				RetryTimeout:      0.5,
				RetryMax:          8,
			},
			ClientNICCapacity: 11000,
			ServerNICJitterCV: 0.02,
			SetupMean:         0.15,
			SetupCV:           0.5,
		}},
		{"Custom", custom, Platform{
			Name: "site",
			FS: beegfs.Config{
				Storage:           storagesim.PlaFRIMConfig(),
				Hosts:             3,
				TargetsPerHost:    1,
				ServerNICCapacity: 2200,
				DefaultPattern:    pattern(3),
				Chooser:           &beegfs.RandomChooser{},
				CreateLatency:     0.02,
				OpenLatency:       0.005,
				PpnSat:            8,
				RetryTimeout:      0.5,
				RetryMax:          8,
			},
			ClientNICCapacity: 2200,
			ServerNICJitterCV: 0.02,
			SetupMean:         0.25,
			SetupCV:           0.4,
		}},
		{"FatTree", fatTree, Platform{
			Name: "ft",
			FS: beegfs.Config{
				Storage:            storagesim.PlaFRIMConfig(),
				Hosts:              6,
				TargetsPerHost:     2,
				ServerNICCapacity:  1100,
				RackHosts:          2,
				RackUplinkCapacity: 2200,
				DefaultPattern:     pattern(2),
				Chooser:            &beegfs.RoundRobinChooser{},
				CreateLatency:      0.02,
				OpenLatency:        0.005,
				PpnSat:             8,
				RetryTimeout:       0.5,
				RetryMax:           8,
			},
			ClientNICCapacity: 1100,
			ServerNICJitterCV: 0.02,
			SetupMean:         0.25,
			SetupCV:           0.4,
		}},
		{"FatTreeCore", fatTreeCore, Platform{
			Name: "ftc",
			FS: beegfs.Config{
				Storage:            storagesim.PlaFRIMConfig(),
				Hosts:              6,
				TargetsPerHost:     2,
				ServerNICCapacity:  1100,
				RackHosts:          2,
				RackUplinkCapacity: 2200,
				CoreCapacity:       1650,
				DefaultPattern:     pattern(2),
				Chooser:            &beegfs.RoundRobinChooser{},
				CreateLatency:      0.02,
				OpenLatency:        0.005,
				PpnSat:             8,
				RetryTimeout:       0.5,
				RetryMax:           8,
			},
			ClientNICCapacity: 1100,
			ServerNICJitterCV: 0.02,
			SetupMean:         0.25,
			SetupCV:           0.4,
		}},
	}
	for _, c := range cases {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, c.got, c.want)
		}
	}
}
