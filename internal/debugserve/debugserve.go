// Package debugserve serves the stdlib debug handlers, net/http/pprof and
// expvar, on a listener of their own: the servers' -debug-addr flag.
package debugserve

import (
	_ "expvar" // /debug/vars
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // /debug/pprof/
)

// Listen serves the debug handlers on addr, under /debug/, until the
// returned listener is closed, and logs the bound address.
func Listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug listener: %w", err)
	}
	log.Printf("debug handlers on http://%s/debug/", ln.Addr())
	go http.Serve(ln, nil) //nolint:errcheck // returns when the listener closes
	return ln, nil
}
