package netmodel

import (
	"reflect"
	"testing"
)

func mergedCloud(t *testing.T) (*Cloud, *Cloud, *Cloud) {
	t.Helper()
	ec2, err := EvenCloud(AmazonEC2, "m4.xlarge", []string{"us-east-1", "eu-west-1"}, 4, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	azure, err := EvenCloud(WindowsAzure, "Standard_D2", []string{"east-us", "japan-east"}, 4, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeClouds(ec2, azure, 3)
	if err != nil {
		t.Fatal(err)
	}
	return merged, ec2, azure
}

func TestMergeCloudsShape(t *testing.T) {
	merged, ec2, azure := mergedCloud(t)
	if merged.M() != 4 {
		t.Fatalf("merged M = %d, want 4", merged.M())
	}
	if merged.TotalNodes() != ec2.TotalNodes()+azure.TotalNodes() {
		t.Error("node counts not preserved")
	}
	// Intra-provider blocks preserved exactly.
	for k := 0; k < 2; k++ {
		for l := 0; l < 2; l++ {
			if merged.BT.At(k, l) != ec2.BT.At(k, l) {
				t.Errorf("EC2 block BT(%d,%d) changed", k, l)
			}
			if merged.LT.At(2+k, 2+l) != azure.LT.At(k, l) {
				t.Errorf("Azure block LT(%d,%d) changed", k, l)
			}
		}
	}
}

func TestMergeCrossProviderConservative(t *testing.T) {
	merged, ec2, azure := mergedCloud(t)
	// EC2 us-east-1 ↔ Azure east-us are geographically close (~200 km),
	// yet the peering link must not beat the conservative provider's cap.
	crossBW := merged.BT.At(0, 2) / MB
	capMBps := minF(ec2.Provider.CrossBWMaxMBps, azure.Provider.CrossBWMaxMBps) * InterProviderFactor
	if crossBW > capMBps*1.05 {
		t.Errorf("cross-provider bw %.2f MB/s above conservative cap %.2f", crossBW, capMBps)
	}
	if crossBW <= 0 {
		t.Error("nonpositive cross-provider bandwidth")
	}
	// A long cross-provider pair (EC2 eu-west ↔ Azure japan-east) must be
	// slower than the short one.
	farBW := merged.BT.At(1, 3) / MB
	if farBW >= crossBW {
		t.Errorf("far pair bw %.2f not below near pair %.2f", farBW, crossBW)
	}
	// Latency grows with distance across providers too.
	if merged.LT.At(0, 2) >= merged.LT.At(1, 3) {
		t.Error("cross-provider latency not increasing with distance")
	}
}

func TestMergeCloudsPositive(t *testing.T) {
	merged, _, _ := mergedCloud(t)
	for k := 0; k < merged.M(); k++ {
		for l := 0; l < merged.M(); l++ {
			if merged.BT.At(k, l) <= 0 || merged.LT.At(k, l) < 0 {
				t.Fatalf("invalid entry at (%d,%d)", k, l)
			}
		}
	}
}

func TestMergeCloudsNil(t *testing.T) {
	c, _ := PaperCloud(1)
	if _, err := MergeClouds(nil, c, 1); err == nil {
		t.Error("nil first cloud accepted")
	}
	if _, err := MergeClouds(c, nil, 1); err == nil {
		t.Error("nil second cloud accepted")
	}
}

func TestMergeCloudsDeterministic(t *testing.T) {
	a1, _, _ := mergedCloud(t)
	a2, _, _ := mergedCloud(t)
	if !reflect.DeepEqual(a1.BT, a2.BT) {
		t.Error("same seed produced different merged clouds")
	}
}
