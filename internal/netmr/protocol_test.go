package netmr

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net"
	"strings"
	"testing"
	"time"
)

// TestHelloVersionMismatchRefused: a hello of another protocol version
// is answered with an error frame naming both versions, the connection
// is closed, and the master admits nothing — also when the rest of that
// version's hello layout does not decode here. A hello without a
// shuffle address is refused the same way.
func TestHelloVersionMismatchRefused(t *testing.T) {
	master, err := NewMaster(mustRegistry(t), MasterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)

	future := message{Type: "hello", ID: "future", Version: protocolVersion + 1, Fetch: "127.0.0.1:1"}
	versions := []string{fmt.Sprintf("version %d", protocolVersion+1), fmt.Sprintf("speaks %d", protocolVersion)}
	for _, tc := range []struct {
		name  string
		frame []byte
		want  []string
	}{
		{"future", encodeBinary(t, future), versions},
		{"future-layout", grownFrame(t, future), versions},
		{"no-shuffle", encodeBinary(t, message{Type: "hello", Version: protocolVersion}), []string{"no shuffle listener address"}},
	} {
		raw, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c := newConn(raw)
		t.Cleanup(func() { _ = c.close() })
		if _, err := raw.Write(tc.frame); err != nil {
			t.Fatal(err)
		}
		reply, err := c.recv(5 * time.Second)
		if err != nil || reply.Type != "error" {
			t.Fatalf("%s: hello got (%+v, %v), want an error frame", tc.name, reply, err)
		}
		for _, w := range tc.want {
			if !strings.Contains(reply.Message, w) {
				t.Errorf("%s: refusal %q does not mention %q", tc.name, reply.Message, w)
			}
		}
		if _, err := c.recv(5 * time.Second); err == nil {
			t.Errorf("%s: connection still open after the refusal", tc.name)
		}
	}
	if n := master.WorkerCount(); n != 0 {
		t.Fatalf("WorkerCount = %d after refused hellos, want 0", n)
	}
}

// grownFrame encodes m as a later protocol version might: one extra
// field before the checksum, so this build's decoder rejects the frame
// while its flag/type/version prefix stays readable.
func grownFrame(t *testing.T, m message) []byte {
	t.Helper()
	wire := frameBody(t, encodeBinary(t, m))
	body := append(append([]byte(nil), wire[1:len(wire)-4]...), 0x2a)
	body = binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crcTable))
	wire = append([]byte{0}, body...)
	return append(binary.AppendUvarint(nil, uint64(len(wire))), wire...)
}

// TestWorkerStartFailsOnRefusedHello: a worker whose master answers the
// hello with an error frame gets that reason back from Start, with no
// serve loop left running and its shuffle listener closed.
func TestWorkerStartFailsOnRefusedHello(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	refusal := fmt.Sprintf("worker speaks protocol version %d, master speaks %d", protocolVersion, protocolVersion+1)
	hellos := make(chan message, 1)
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		c := newConn(raw)
		defer c.close()
		hello, err := c.recv(5 * time.Second)
		if err != nil {
			return
		}
		hellos <- hello
		_ = c.send(message{Type: "error", Message: refusal}, 5*time.Second)
	}()

	w, err := NewWorker(mustRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Start(ln.Addr().String())
	if err == nil || !strings.Contains(err.Error(), refusal) {
		t.Fatalf("Start = %v, want the master's refusal %q", err, refusal)
	}
	hello := <-hellos
	if hello.Version != protocolVersion || hello.Fetch == "" {
		t.Errorf("hello carried version %d, fetch %q", hello.Version, hello.Fetch)
	}
	if c, err := net.DialTimeout("tcp", hello.Fetch, time.Second); err == nil {
		c.Close()
		t.Error("shuffle listener still accepting after the refused start")
	}
	done := make(chan struct{})
	go func() { w.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop blocked on a serve loop the refused start left behind")
	}
}

// TestWorkerStartFailsWhenShuffleListenerCannotBind: a worker without a
// shuffle listener cannot take part in the protocol, so Start reports
// the bind error instead of joining.
func TestWorkerStartFailsWhenShuffleListenerCannotBind(t *testing.T) {
	master, err := NewMaster(mustRegistry(t), MasterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = taken.Close() })

	w, err := NewWorker(mustRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	w.fetchListen = taken.Addr().String()
	err = w.Start(addr)
	if err == nil || !strings.Contains(err.Error(), "shuffle listen") {
		t.Fatalf("Start = %v, want the shuffle listener's bind error", err)
	}
	w.Stop()
	// The worker hung up before its hello, so there is nothing to admit.
	if n := master.WorkerCount(); n != 0 {
		t.Fatalf("WorkerCount = %d, want 0", n)
	}
}
