// Tests for the real transport layer: framing, sockets, and the
// non-blocking send the splitter builds the paper's elect-to-block
// measurement on (MSG_DONTWAIT, then a timed wait for POLLOUT).
#include <gtest/gtest.h>
#include <unistd.h>

#include <thread>

#include "transport/framing.h"
#include "transport/socket.h"
#include "util/time.h"

namespace slb::net {
namespace {

// ------------------------------------------------------------- framing --

TEST(Framing, EncodeDecodeRoundTrip) {
  Frame in;
  in.seq = 42;
  in.payload = {1, 2, 3, 4, 5};
  std::vector<std::uint8_t> wire;
  encode_frame(in, wire);
  EXPECT_EQ(wire.size(), kFrameHeaderBytes + 5);

  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  Frame out;
  ASSERT_TRUE(dec.next(out));
  EXPECT_EQ(out.seq, 42u);
  EXPECT_EQ(out.payload, in.payload);
  EXPECT_FALSE(dec.next(out));
}

TEST(Framing, EmptyPayload) {
  Frame in;
  in.seq = 7;
  std::vector<std::uint8_t> wire;
  encode_frame(in, wire);
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  Frame out;
  ASSERT_TRUE(dec.next(out));
  EXPECT_EQ(out.seq, 7u);
  EXPECT_TRUE(out.payload.empty());
  EXPECT_FALSE(out.is_fin());
}

TEST(Framing, FinFrameDetected) {
  const std::vector<std::uint8_t> wire = fin_bytes();
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  Frame out;
  ASSERT_TRUE(dec.next(out));
  EXPECT_TRUE(out.is_fin());
}

TEST(Framing, ByteAtATimeFeeding) {
  Frame in;
  in.seq = 0x1122334455667788ULL;
  in.payload.assign(33, 0xCD);
  std::vector<std::uint8_t> wire;
  encode_frame(in, wire);

  FrameDecoder dec;
  Frame out;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    dec.feed(&wire[i], 1);
    EXPECT_FALSE(dec.next(out)) << "frame complete too early at byte " << i;
  }
  dec.feed(&wire.back(), 1);
  ASSERT_TRUE(dec.next(out));
  EXPECT_EQ(out.seq, in.seq);
  EXPECT_EQ(out.payload, in.payload);
}

TEST(Framing, MultipleFramesInOneFeed) {
  std::vector<std::uint8_t> wire;
  for (std::uint64_t s = 0; s < 10; ++s) {
    Frame f;
    f.seq = s;
    f.payload.assign(static_cast<std::size_t>(s), 0xEE);
    encode_frame(f, wire);
  }
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  Frame out;
  for (std::uint64_t s = 0; s < 10; ++s) {
    ASSERT_TRUE(dec.next(out));
    EXPECT_EQ(out.seq, s);
    EXPECT_EQ(out.payload.size(), s);
  }
  EXPECT_FALSE(dec.next(out));
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

TEST(Framing, CompactionKeepsStreamIntact) {
  // Push enough frames through to trigger internal compaction repeatedly.
  FrameDecoder dec;
  Frame out;
  std::vector<std::uint8_t> wire;
  std::uint64_t next_expected = 0;
  for (std::uint64_t s = 0; s < 2000; ++s) {
    wire.clear();
    Frame f;
    f.seq = s;
    f.payload.assign(16, static_cast<std::uint8_t>(s & 0xFF));
    encode_frame(f, wire);
    dec.feed(wire.data(), wire.size());
    while (dec.next(out)) {
      EXPECT_EQ(out.seq, next_expected++);
    }
  }
  EXPECT_EQ(next_expected, 2000u);
}

// -------------------------------------------------------------- sockets --

TEST(Socket, FdMoveSemantics) {
  Fd a(-1);
  EXPECT_FALSE(a.valid());
  Listener listener;
  Fd b = connect_loopback(listener.port());
  EXPECT_TRUE(b.valid());
  Fd c = std::move(b);
  EXPECT_TRUE(c.valid());
  EXPECT_FALSE(b.valid());  // NOLINT(bugprone-use-after-move): testing move
}

TEST(Socket, LoopbackEchoExactBytes) {
  Listener listener;
  Fd client = connect_loopback(listener.port());
  Fd server = listener.accept_one();

  const char msg[] = "hello streaming world";
  write_all(client.get(), msg, sizeof(msg));
  char buf[sizeof(msg)] = {};
  std::size_t got = 0;
  while (got < sizeof(msg)) {
    const ssize_t n = ::read(server.get(), buf + got, sizeof(msg) - got);
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  EXPECT_STREQ(buf, msg);
}

TEST(Socket, OptionsApplyWithoutError) {
  Listener listener;
  Fd client = connect_loopback(listener.port());
  EXPECT_NO_THROW(set_nodelay(client.get()));
  EXPECT_NO_THROW(set_send_buffer(client.get(), 8192));
  EXPECT_NO_THROW(set_recv_buffer(client.get(), 8192));
}

// ------------------------------------------------- non-blocking send --

TEST(Socket, SendSomeAcceptsEverythingWhileReaderKeepsUp) {
  Listener listener;
  Fd client = connect_loopback(listener.port());
  Fd server = listener.accept_one();

  constexpr std::size_t kTotal = 100 * 1024;
  std::thread reader([&] {
    std::vector<std::uint8_t> buf(64 * 1024);
    std::size_t total = 0;
    while (total < kTotal) {
      const ssize_t n = ::read(server.get(), buf.data(), buf.size());
      if (n <= 0) break;
      total += static_cast<std::size_t>(n);
    }
  });
  // 100 KiB fits the default loopback buffers: every call takes its whole
  // chunk, none would block.
  std::vector<std::uint8_t> chunk(1024, 0x55);
  for (std::size_t sent = 0; sent < kTotal; sent += chunk.size()) {
    EXPECT_EQ(send_some(client.get(), chunk.data(), chunk.size()),
              static_cast<std::ptrdiff_t>(chunk.size()));
  }
  reader.join();
}

TEST(Socket, SendSomeReportsWouldBlockWithoutWaitingWhenReaderStalls) {
  Listener listener;
  Fd client = connect_loopback(listener.port());
  Fd server = listener.accept_one();
  set_send_buffer(client.get(), 4 * 1024);
  set_recv_buffer(server.get(), 4 * 1024);

  // Nothing reads: the small buffers fill, then a send takes nothing.
  std::vector<std::uint8_t> chunk(4096, 0x33);
  std::ptrdiff_t put = 1;
  for (int i = 0; i < 1000 && put > 0; ++i) {
    put = send_some(client.get(), chunk.data(), chunk.size());
  }
  ASSERT_EQ(put, 0);
  const TimeNs t0 = monotonic_now();
  EXPECT_EQ(send_some(client.get(), chunk.data(), chunk.size()), 0);
  EXPECT_LT(monotonic_now() - t0, millis(5));  // never waits
}

TEST(Socket, SendSomeReportsPeerGoneAfterClose) {
  Listener listener;
  Fd client = connect_loopback(listener.port());
  Fd server = listener.accept_one();
  server.reset();

  // The first send after the close draws an RST; a later one sees it.
  std::vector<std::uint8_t> chunk(64, 0x11);
  std::ptrdiff_t put = 0;
  const TimeNs deadline = monotonic_now() + seconds(2);
  while (put != kPeerGone && monotonic_now() < deadline) {
    put = send_some(client.get(), chunk.data(), chunk.size());
  }
  EXPECT_EQ(put, kPeerGone);
}

}  // namespace
}  // namespace slb::net
