package core

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mimicos"
)

func TestFunctionalChannelRoundTrip(t *testing.T) {
	ch := NewFunctionalChannel(func(req Request) Response {
		if req.Kind != EvPageFault || req.VA != 0x1234 {
			t.Errorf("request corrupted: %+v", req)
		}
		return Response{Fault: mimicos.FaultOutcome{OK: true, Frame: 0xABC000}}
	})
	resp := ch.Call(Request{Kind: EvPageFault, VA: 0x1234})
	if !resp.Fault.OK || resp.Fault.Frame != 0xABC000 {
		t.Fatalf("response = %+v", resp)
	}
	if ch.Messages != 1 || ch.Doorbell != 2 {
		t.Fatalf("channel accounting: messages=%d doorbells=%d", ch.Messages, ch.Doorbell)
	}
}

func TestStreamChannelAccounting(t *testing.T) {
	var ch StreamChannel
	s := isa.Stream{isa.ALU(50), isa.Load(1, 0x1000), isa.Store(2, 0x2000)}
	got := ch.Deliver(s)
	if len(got) != len(s) {
		t.Fatal("stream not passed through")
	}
	if ch.Streams != 1 || ch.Insts != 52 || ch.MemOps != 2 {
		t.Fatalf("accounting: %+v", ch)
	}
	ch.Deliver(isa.Stream{isa.ALU(10)})
	if ch.PeakStream != 52 {
		t.Fatalf("peak = %d", ch.PeakStream)
	}
}
