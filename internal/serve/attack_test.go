package serve

import "testing"

// TestQoSOffPathUnchanged pins the compatibility contract: with
// ClientRateUS zero the gateway must not construct a QoS layer at all, so
// the pre-QoS serving path (and its /stats schema) is untouched.
func TestQoSOffPathUnchanged(t *testing.T) {
	gw := testGateway(t, Config{Shards: 1, Seed: 3})
	if gw.qos != nil {
		t.Fatal("QoS layer constructed without ClientRateUS")
	}
	resp := gw.Submit(&Request{Op: OpMD5, Payload: []byte("x"), ClientID: "anyone"})
	if resp.Status != StatusOK {
		t.Fatalf("submit: %+v", resp)
	}
	if gw.Stats().QoS != nil {
		t.Fatal("stats exports a QoS view with QoS off")
	}
}

// TestThrottleShedReason verifies the wire contract the load generator
// and retrying clients key off: a rate-limited request is shed with
// reason "throttle" and never reaches a shard.
func TestThrottleShedReason(t *testing.T) {
	gw := testGateway(t, Config{
		Shards: 1, Seed: 3,
		ClientRateUS: 1, ClientBurstUS: 1, // everything after the first µs throttles
	})
	var throttled *Response
	for i := 0; i < 50 && throttled == nil; i++ {
		resp := gw.Submit(&Request{Op: OpMD5, Payload: []byte("spam"), ClientID: "abuser"})
		if resp.Status == StatusShed {
			throttled = resp
		}
	}
	if throttled == nil {
		t.Fatal("50 back-to-back requests against a 1µs/s budget never throttled")
	}
	if throttled.ShedReason != "throttle" {
		t.Fatalf("shed reason %q, want throttle", throttled.ShedReason)
	}
	if throttled.Shard != -1 {
		t.Fatalf("throttled request reached shard %d", throttled.Shard)
	}
	if gw.Stats().ShedByReason["throttle"] == 0 {
		t.Fatal("throttle shed not counted in metrics")
	}
}
