package main

import (
	"net/http"
	"testing"
)

func TestHTTPServerSetsConnectionDeadlines(t *testing.T) {
	s := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if s.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", s.ReadHeaderTimeout)
	}
	if s.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", s.IdleTimeout)
	}
	// The events endpoint streams for a campaign's whole life; a
	// whole-request or whole-response deadline would cut it.
	if s.ReadTimeout != 0 || s.WriteTimeout != 0 {
		t.Errorf("ReadTimeout = %v, WriteTimeout = %v, want both 0", s.ReadTimeout, s.WriteTimeout)
	}
	if s.Addr != "127.0.0.1:0" || s.Handler == nil {
		t.Errorf("server not bound to its address and handler: %q, %v", s.Addr, s.Handler)
	}
}
