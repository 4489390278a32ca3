// End-to-end server tests for qpf_serve over real loopback sockets:
// hello negotiation, the request/reply happy path, typed refusals
// (unknown session, quota, overload shedding), protocol poisoning,
// fault isolation under an escalating tenant, and the drain /
// park-restore lifecycle.  Suite names start with "Serve" so
// check_sanitize.sh runs them under TSan.
#include "serve/server.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "circuit/error.h"
#include "io/fault_fs.h"
#include "journal/snapshot.h"
#include "serve/client.h"

namespace qpf::serve {
namespace {

const char* kProgram =
    "qubits 3\n"
    "h q0\n"
    "cnot q0,q1\n"
    "cnot q1,q2\n"
    "measure q0\n"
    "measure q1\n"
    "measure q2\n";

SessionConfig basic_config(const std::string& name) {
  SessionConfig config;
  config.name = name;
  config.seed = 11;
  config.qubits = 3;
  config.pauli_frame = true;
  return config;
}

SessionConfig poisoned_config(const std::string& name) {
  SessionConfig config = basic_config(name);
  config.supervise = true;
  config.max_retries = 1;
  config.escalate_after = 1;
  config.chaos.seed = config.seed ^ 0xdead;
  config.chaos.min_gap = 1;
  config.chaos.max_gap = 1;
  config.chaos.crash_weight = 1;
  return config;
}

/// RAII server on an ephemeral port with serve() on its own thread.
class ServerFixture {
 public:
  explicit ServerFixture(ServeOptions options) : server_(std::move(options)) {
    server_.start();
    thread_ = std::thread([this] { server_.serve(); });
  }
  ~ServerFixture() {
    if (thread_.joinable()) {
      server_.shutdown();
      thread_.join();
    }
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return server_.port(); }
  [[nodiscard]] Server& server() noexcept { return server_; }

  /// Orderly drain, joining the serve thread (destructor-safe after).
  void drain() {
    server_.shutdown();
    thread_.join();
  }

 private:
  Server server_;
  std::thread thread_;
};

/// Connect + hello, asserting the handshake succeeded.
void handshake(Client& client, std::uint16_t port) {
  client.connect(port);
  const Client::Result hello = client.hello("qpf-test");
  ASSERT_FALSE(hello.error.has_value()) << hello.error->message;
}

TEST(ServeServerTest, HelloOpenSubmitMeasureCloseHappyPath) {
  ServerFixture fixture{ServeOptions{}};
  Client client;
  handshake(client, fixture.port());

  const Client::Result opened = client.open_session(basic_config("t"));
  ASSERT_FALSE(opened.error.has_value()) << opened.error->message;
  const SessionOpened session = decode_session_opened(opened.reply.payload);
  EXPECT_EQ(session.session, session_id_for("t"));
  EXPECT_FALSE(session.restored);

  const Client::Result run = client.submit_qasm(session.session, kProgram);
  ASSERT_FALSE(run.error.has_value()) << run.error->message;
  const RunReply reply = decode_run_reply(run.reply.payload);
  EXPECT_EQ(reply.bits.size(), 3u);
  EXPECT_EQ(reply.operations, 6u);

  const Client::Result measured = client.measure(session.session);
  ASSERT_FALSE(measured.error.has_value());
  EXPECT_EQ(decode_measure_reply(measured.reply.payload), reply.bits);

  const Client::Result closed = client.close_session(session.session);
  ASSERT_FALSE(closed.error.has_value());
  EXPECT_EQ(decode_closed(closed.reply.payload).requests_served, 1u);

  // The retired id is gone: the server answers unknown-session.
  const Client::Result after = client.submit_qasm(session.session, kProgram);
  ASSERT_TRUE(after.error.has_value());
  EXPECT_EQ(after.error->code, "unknown-session");
}

TEST(ServeServerTest, RepliesAreDeterministicAcrossServerInstances) {
  std::vector<std::uint8_t> first_transcript;
  for (int round = 0; round < 2; ++round) {
    ServerFixture fixture{ServeOptions{}};
    Client client;
    handshake(client, fixture.port());
    const Client::Result opened = client.open_session(basic_config("t"));
    ASSERT_FALSE(opened.error.has_value());
    const std::uint64_t id = session_id_for("t");
    for (int i = 0; i < 6; ++i) {
      const Client::Result run = client.submit_qasm(id, kProgram);
      ASSERT_FALSE(run.error.has_value());
    }
    (void)client.close_session(id);
    if (round == 0) {
      first_transcript = client.transcript();
    } else {
      EXPECT_EQ(client.transcript(), first_transcript)
          << "same requests, different reply bytes across server runs";
    }
  }
}

TEST(ServeServerTest, ReplyStreamIsByteIdenticalAcrossExecutorWidths) {
  // The executor-migration contract for the serve surface: session
  // turns run on the shared qpf::exec::Executor (service mode), and a
  // single client's reply stream must not depend on how many workers
  // the pool has.
  std::vector<std::uint8_t> reference;
  for (const std::size_t threads : {1u, 2u, 7u, 16u}) {
    ServeOptions options;
    options.executor_threads = threads;
    ServerFixture fixture{std::move(options)};
    Client client;
    handshake(client, fixture.port());
    const Client::Result opened = client.open_session(basic_config("t"));
    ASSERT_FALSE(opened.error.has_value());
    const std::uint64_t id = session_id_for("t");
    for (int i = 0; i < 4; ++i) {
      const Client::Result run = client.submit_qasm(id, kProgram);
      ASSERT_FALSE(run.error.has_value());
    }
    (void)client.close_session(id);
    if (threads == 1) {
      reference = client.transcript();
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(client.transcript(), reference)
          << "executor_threads=" << threads
          << ": reply bytes depend on pool width";
    }
  }
}

TEST(ServeServerTest, RequestsBeforeHelloArePoisoned) {
  ServerFixture fixture{ServeOptions{}};
  Client client;
  client.connect(fixture.port());
  Frame request;
  request.type = MsgType::kMeasure;
  request.session = session_id_for("t");
  request.request = 1;
  client.send(request);
  const auto reply = client.recv();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kError);
  EXPECT_EQ(decode_error_reply(reply->payload).code, "protocol");
  // The connection is doomed after the error reply drains.
  EXPECT_FALSE(client.recv().has_value());
}

TEST(ServeServerTest, MalformedPayloadGetsTypedProtocolReply) {
  // The frame armor is valid but the payload is not a SessionConfig
  // snapshot stream: the server answers a typed `protocol` error
  // instead of crashing or silently misreading the bytes.
  ServerFixture fixture{ServeOptions{}};
  Client client;
  handshake(client, fixture.port());
  Frame bad;
  bad.type = MsgType::kOpenSession;
  bad.request = 9;
  bad.payload = {0xde, 0xad, 0xbe, 0xef};
  const Frame reply = client.transact(bad);
  ASSERT_EQ(reply.type, MsgType::kError);
  EXPECT_EQ(decode_error_reply(reply.payload).code, "protocol");
}

TEST(ServeServerTest, UnknownSessionAndVersionRefusalsAreTyped) {
  ServerFixture fixture{ServeOptions{}};
  {
    Client client;
    handshake(client, fixture.port());
    const Client::Result run =
        client.submit_qasm(session_id_for("nobody"), kProgram);
    ASSERT_TRUE(run.error.has_value());
    EXPECT_EQ(run.error->code, "unknown-session");
  }
  // A client from the future ([7, 9]) and one that speaks only the
  // retired version 1 ([1, 1]): neither range holds version 2 — typed
  // `version` refusal, then the connection is dropped.
  for (const Hello& payload :
       {Hello{7, 9, "time-traveler"}, Hello{1, 1, "v1-client"}}) {
    Client client;
    client.connect(fixture.port());
    Frame hello;
    hello.type = MsgType::kHello;
    hello.request = 1;
    hello.payload = encode_hello(payload);
    const Frame reply = client.transact(hello);
    ASSERT_EQ(reply.type, MsgType::kError) << payload.client_name;
    EXPECT_EQ(decode_error_reply(reply.payload).code, "version");
    EXPECT_FALSE(client.recv().has_value());
  }
}

TEST(ServeServerTest, FrameWithVersionByteOneIsRefused) {
  // A version-1 frame is an armor violation: the server answers with
  // a typed `protocol` error and drops the connection.
  ServerFixture fixture{ServeOptions{}};
  Client client;
  client.connect(fixture.port());
  Frame hello;
  hello.version = 1;
  hello.type = MsgType::kHello;
  hello.request = 1;
  hello.payload = encode_hello(Hello{1, 2, "v1-frames"});
  client.send(hello);
  const auto reply = client.recv();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kError);
  EXPECT_EQ(decode_error_reply(reply->payload).code, "protocol");
  EXPECT_FALSE(client.recv().has_value());
  EXPECT_EQ(fixture.server().stats().connections_dropped, 1u);
}

TEST(ServeServerTest, QuotaRefusesDeterministically) {
  ServeOptions options;
  options.quota.max_requests = 2;
  ServerFixture fixture{options};
  Client client;
  handshake(client, fixture.port());
  ASSERT_FALSE(client.open_session(basic_config("t")).error.has_value());
  const std::uint64_t id = session_id_for("t");
  EXPECT_FALSE(client.submit_qasm(id, kProgram).error.has_value());
  EXPECT_FALSE(client.submit_qasm(id, kProgram).error.has_value());
  const Client::Result third = client.submit_qasm(id, kProgram);
  ASSERT_TRUE(third.error.has_value());
  EXPECT_EQ(third.error->code, "quota");
  EXPECT_EQ(fixture.server().stats().quota_refusals, 1u);
}

TEST(ServeServerTest, OverloadShedsNewestWithTypedReply) {
  ServeOptions options;
  options.queue_depth = 2;
  options.executor_threads = 1;
  ServerFixture fixture{options};
  Client client;
  handshake(client, fixture.port());
  ASSERT_FALSE(client.open_session(basic_config("t")).error.has_value());
  const std::uint64_t id = session_id_for("t");

  // Pipeline a burst without reading: with queue_depth=2, at most
  // 2 requests wait + 1 runs; the tail of the burst is shed with
  // `overloaded` replies.  Admitted requests complete normally.
  const int kBurst = 24;
  for (int i = 0; i < kBurst; ++i) {
    Frame request;
    request.type = MsgType::kSubmitQasm;
    request.session = id;
    request.request = static_cast<std::uint32_t>(100 + i);
    request.payload = encode_submit_qasm(kProgram);
    client.send(request);
  }
  int ok = 0;
  int shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    const auto reply = client.recv();
    ASSERT_TRUE(reply.has_value()) << "server closed mid-burst";
    if (reply->type == MsgType::kRunReply) {
      ++ok;
    } else {
      ASSERT_EQ(reply->type, MsgType::kError);
      EXPECT_EQ(decode_error_reply(reply->payload).code, "overloaded");
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GE(shed, 1) << "burst never tripped the queue bound";
  EXPECT_GE(ok, 1) << "every request was shed";
  EXPECT_EQ(fixture.server().stats().requests_shed,
            static_cast<std::uint64_t>(shed));
}

TEST(ServeServerTest, EscalatingTenantIsEvictedOthersUnaffected) {
  ServeOptions options;
  options.executor_threads = 2;
  ServerFixture fixture{options};

  Client healthy;
  handshake(healthy, fixture.port());
  ASSERT_FALSE(healthy.open_session(basic_config("good")).error.has_value());
  const std::uint64_t good = session_id_for("good");

  Client victim;
  handshake(victim, fixture.port());
  ASSERT_FALSE(
      victim.open_session(poisoned_config("victim")).error.has_value());
  const std::uint64_t bad = session_id_for("victim");

  // Drive the poisoned tenant until the supervisor escalates and the
  // server evicts it; interleave healthy traffic and record it.
  std::vector<std::string> healthy_bits;
  bool evicted = false;
  for (int i = 0; i < 64 && !evicted; ++i) {
    const Client::Result poisoned = victim.submit_qasm(bad, kProgram);
    if (poisoned.error.has_value()) {
      EXPECT_EQ(poisoned.error->code, "supervision");
      // Every later request for the id is a typed `evicted` refusal.
      const Client::Result after = victim.submit_qasm(bad, kProgram);
      ASSERT_TRUE(after.error.has_value());
      EXPECT_EQ(after.error->code, "evicted");
      evicted = true;
    }
    const Client::Result run = healthy.submit_qasm(good, kProgram);
    ASSERT_FALSE(run.error.has_value()) << run.error->message;
    healthy_bits.push_back(decode_run_reply(run.reply.payload).bits);
  }
  ASSERT_TRUE(evicted) << "poisoned tenant never escalated";
  EXPECT_GE(fixture.server().stats().sessions_evicted, 1u);

  // Isolation: the healthy session's replies equal an unperturbed
  // session's — same config, same request history, no neighbor.
  Session reference(basic_config("good"));
  for (std::size_t i = 0; i < healthy_bits.size(); ++i) {
    EXPECT_EQ(healthy_bits[i], reference.submit_qasm(kProgram).bits)
        << "healthy reply " << i << " diverged while neighbor escalated";
  }
}

TEST(ServeServerTest, IdleConnectionSurvivesReactorSynchronousReply) {
  // Regression: the slow-reader timeout must measure write *stall*, not
  // idle time.  A healthy client that goes quiet for longer than
  // write_timeout_ms and then sends a request used to be dropped in the
  // same reactor iteration that enqueued the reply — before a single
  // write was attempted — because the progress timestamp only advanced
  // on actual socket writes.
  ServeOptions options;
  options.write_timeout_ms = 50;
  ServerFixture fixture{options};
  Client client;
  handshake(client, fixture.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  const Client::Result opened = client.open_session(basic_config("t"));
  ASSERT_FALSE(opened.error.has_value())
      << "idle-but-healthy connection was dropped: "
      << (opened.error ? opened.error->message : "");
  const Client::Result run =
      client.submit_qasm(session_id_for("t"), kProgram);
  EXPECT_FALSE(run.error.has_value());
}

TEST(ServeServerTest, SessionIsPrivateToItsConnection) {
  // Session ids are a deterministic hash of the public name, so a
  // second connection can compute them; it must still be refused —
  // submit, snapshot, and close all require the attached connection.
  ServerFixture fixture{ServeOptions{}};
  Client owner;
  handshake(owner, fixture.port());
  ASSERT_FALSE(owner.open_session(basic_config("t")).error.has_value());
  const std::uint64_t id = session_id_for("t");

  Client intruder;
  handshake(intruder, fixture.port());
  for (const Client::Result& attempt :
       {intruder.submit_qasm(id, kProgram), intruder.snapshot(id),
        intruder.close_session(id)}) {
    ASSERT_TRUE(attempt.error.has_value());
    EXPECT_EQ(attempt.error->code, "session-busy");
  }

  // The owner is untouched: its session still accepts traffic.
  const Client::Result run = owner.submit_qasm(id, kProgram);
  EXPECT_FALSE(run.error.has_value());
}

TEST(ServeServerTest, WarmReattachRequiresMatchingConfig) {
  // Re-attaching to a warm (detached, still in memory) session must
  // enforce the same config-match contract as unparking a snapshot:
  // a different seed/topology is a typed `checkpoint` refusal, never a
  // silent hand-over of the old stack.
  ServerFixture fixture{ServeOptions{}};
  std::string bits_before;
  {
    Client first;
    handshake(first, fixture.port());
    ASSERT_FALSE(first.open_session(basic_config("t")).error.has_value());
    const Client::Result run =
        first.submit_qasm(session_id_for("t"), kProgram);
    ASSERT_FALSE(run.error.has_value());
    bits_before = decode_run_reply(run.reply.payload).bits;
    first.disconnect();
  }

  Client second;
  handshake(second, fixture.port());
  SessionConfig mismatched = basic_config("t");
  mismatched.seed += 1;
  // The server detaches the session when it notices the first client's
  // close; until then re-opening the name reports `session-busy`.
  Client::Result reopened = second.open_session(mismatched);
  for (int i = 0; i < 200 && reopened.error.has_value() &&
                  reopened.error->code == "session-busy";
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    reopened = second.open_session(mismatched);
  }
  ASSERT_TRUE(reopened.error.has_value())
      << "mismatched config silently re-attached the warm session";
  EXPECT_EQ(reopened.error->code, "checkpoint");

  // The matching config re-attaches the same warm stack (restored=true,
  // state intact).
  const Client::Result matched = second.open_session(basic_config("t"));
  ASSERT_FALSE(matched.error.has_value()) << matched.error->message;
  EXPECT_TRUE(decode_session_opened(matched.reply.payload).restored);
  const Client::Result measured = second.measure(session_id_for("t"));
  ASSERT_FALSE(measured.error.has_value());
  EXPECT_EQ(decode_measure_reply(measured.reply.payload), bits_before);
}

TEST(ServeServerTest, ReattachWithWorkInFlightKeepsTheQuota) {
  // A connection drops with submits still queued or running, and
  // another connection re-attaches the warm session.  The executor may
  // be charging that session while the re-attach runs, so the open must
  // not read the session's own counters; the admission counters already
  // count the in-flight work.  Either way the session runs exactly its
  // quota of requests.  The two connections use disjoint request ids
  // (100.. and 200..), so the dedup window answers none of them.
  constexpr std::uint64_t kQuota = 12;
  ServeOptions options;
  options.quota.max_requests = kQuota;
  options.executor_threads = 1;
  ServerFixture fixture{options};
  const std::uint64_t id = session_id_for("t");
  std::string program = "qubits 3\n";
  for (int i = 0; i < 1000; ++i) {
    program += "h q0\ncnot q0,q1\ncnot q1,q2\n";
  }
  program += "measure q0\n";
  {
    Client first;
    handshake(first, fixture.port());
    ASSERT_FALSE(first.open_session(basic_config("t")).error.has_value());
    for (int i = 0; i < 8; ++i) {
      Frame request;
      request.type = MsgType::kSubmitQasm;
      request.session = id;
      request.request = static_cast<std::uint32_t>(100 + i);
      request.payload = encode_submit_qasm(program);
      first.send(request);
    }
    first.disconnect();
  }

  Client second;
  handshake(second, fixture.port());
  Client::Result reopened = second.open_session(basic_config("t"));
  for (int i = 0; i < 400 && reopened.error.has_value() &&
                  reopened.error->code == "session-busy";
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    reopened = second.open_session(basic_config("t"));
  }
  ASSERT_FALSE(reopened.error.has_value()) << reopened.error->message;
  EXPECT_TRUE(decode_session_opened(reopened.reply.payload).restored);
  std::uint64_t accepted = 0;
  for (std::uint64_t i = 0; i <= kQuota; ++i) {
    Frame request;
    request.type = MsgType::kSubmitQasm;
    request.session = id;
    request.request = static_cast<std::uint32_t>(200 + i);
    request.payload = encode_submit_qasm(kProgram);
    const Frame reply = second.transact(request);
    if (reply.type == MsgType::kError) {
      EXPECT_EQ(decode_error_reply(reply.payload).code, "quota");
      break;
    }
    ++accepted;
  }
  EXPECT_GE(accepted, kQuota - 8);
  second.disconnect();
  fixture.drain();
  // The dropped connection's submits that were admitted and the
  // re-attached connection's fill the quota exactly.
  EXPECT_EQ(fixture.server().stats().requests_executed, kQuota);
}

class ServeServerDrainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string(::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name()) +
           ".park";
    ASSERT_EQ(::mkdir(dir_.c_str(), 0755), 0);
  }
  void TearDown() override {
    SessionTable table(1, dir_);
    (void)std::remove(table.park_path("t").c_str());
    (void)std::remove(table.park_path("good").c_str());
    ::rmdir(dir_.c_str());
  }
  std::string dir_;
};

TEST_F(ServeServerDrainTest, DrainParksSessionsAndRestartRestores) {
  ServeOptions options;
  options.state_dir = dir_;

  std::string bits_before;
  {
    ServerFixture fixture{options};
    Client client;
    handshake(client, fixture.port());
    ASSERT_FALSE(client.open_session(basic_config("t")).error.has_value());
    const std::uint64_t id = session_id_for("t");
    for (int i = 0; i < 3; ++i) {
      const Client::Result run = client.submit_qasm(id, kProgram);
      ASSERT_FALSE(run.error.has_value());
      bits_before = decode_run_reply(run.reply.payload).bits;
    }
    fixture.drain();  // SIGTERM path: serve() returns after checkpointing
    EXPECT_EQ(fixture.server().stats().sessions_parked, 1u);
  }
  {
    SessionTable probe(1, dir_);
    EXPECT_TRUE(journal::file_exists(probe.park_path("t")));
  }

  // A new server over the same state dir restores the session
  // transparently; its state continues where the drained one stopped.
  ServerFixture fixture{options};
  Client client;
  handshake(client, fixture.port());
  SessionConfig resume = basic_config("t");
  resume.resume = true;
  const Client::Result opened = client.open_session(resume);
  ASSERT_FALSE(opened.error.has_value()) << opened.error->message;
  EXPECT_TRUE(decode_session_opened(opened.reply.payload).restored);
  const Client::Result measured = client.measure(session_id_for("t"));
  ASSERT_FALSE(measured.error.has_value());
  EXPECT_EQ(decode_measure_reply(measured.reply.payload), bits_before);
  EXPECT_EQ(fixture.server().stats().sessions_restored, 1u);
}

TEST_F(ServeServerDrainTest, ReattachedClientRequestsRunAfterARestart) {
  // A Client numbers its requests 1, 2, 3, ... on every connection,
  // while the parked session's dedup window still holds the replies of
  // the first connection's ids.  Opening the session moves the new
  // connection's ids past the session's last_request_id, so its
  // submits execute instead of being answered from the window.
  ServeOptions options;
  options.state_dir = dir_;
  const std::uint64_t id = session_id_for("t");
  {
    ServerFixture fixture{options};
    Client client;
    handshake(client, fixture.port());
    ASSERT_FALSE(client.open_session(basic_config("t")).error.has_value());
    for (int i = 0; i < 3; ++i) {
      ASSERT_FALSE(client.submit_qasm(id, kProgram).error.has_value());
    }
    fixture.drain();
  }

  ServerFixture fixture{options};
  Client client;
  handshake(client, fixture.port());
  SessionConfig resume = basic_config("t");
  resume.resume = true;
  const Client::Result opened = client.open_session(resume);
  ASSERT_FALSE(opened.error.has_value()) << opened.error->message;
  EXPECT_TRUE(decode_session_opened(opened.reply.payload).restored);
  for (int i = 0; i < 3; ++i) {
    ASSERT_FALSE(client.submit_qasm(id, kProgram).error.has_value());
  }
  const Client::Result closed = client.close_session(id);
  ASSERT_FALSE(closed.error.has_value());
  EXPECT_EQ(decode_closed(closed.reply.payload).requests_served, 6u);
  EXPECT_EQ(fixture.server().stats().dedup_hits, 0u);
}

TEST_F(ServeServerDrainTest, ParkFailureEvictsWithIoDegradedNotCorruption) {
  // Sustained ENOSPC on the state dir: parking an idle session fails,
  // so the server must evict it (keeping the stack would leak memory
  // for as long as the disk stays full) and answer later requests for
  // it with a typed `io-degraded` refusal — while a healthy attached
  // tenant stays byte-identical to an unperturbed reference.
  ServeOptions options;
  options.state_dir = dir_;
  options.idle_evict_ms = 20;
  ServerFixture fixture{options};

  Client healthy;
  handshake(healthy, fixture.port());
  ASSERT_FALSE(healthy.open_session(basic_config("good")).error.has_value());
  const std::uint64_t good = session_id_for("good");

  const std::uint64_t victim = session_id_for("t");
  {
    Client owner;
    handshake(owner, fixture.port());
    ASSERT_FALSE(owner.open_session(basic_config("t")).error.has_value());
    ASSERT_FALSE(owner.submit_qasm(victim, kProgram).error.has_value());
    owner.disconnect();  // detach; the idle deadline starts ticking
  }

  io::FaultPlan plan;
  plan.mode = io::FaultPlan::Mode::kEnospcUnder;
  plan.path_prefix = dir_;
  io::FaultFs fs(plan);
  std::vector<std::string> healthy_bits;
  {
    io::FaultFsGuard guard(fs);
    // Drive healthy traffic until housekeeping hits the dead state dir
    // and records the failed park.
    for (int i = 0; i < 400 && fixture.server().stats().park_failures == 0;
         ++i) {
      const Client::Result run = healthy.submit_qasm(good, kProgram);
      ASSERT_FALSE(run.error.has_value()) << run.error->message;
      healthy_bits.push_back(decode_run_reply(run.reply.payload).bits);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE(fixture.server().stats().park_failures, 1u)
        << "housekeeping never attempted the failing park";

    // The evicted id gets the typed refusal, not `unknown-session` and
    // not a hung or crashed server.
    Client later;
    handshake(later, fixture.port());
    const Client::Result refused = later.submit_qasm(victim, kProgram);
    ASSERT_TRUE(refused.error.has_value());
    EXPECT_EQ(refused.error->code, "io-degraded");
  }

  // Isolation: the healthy tenant's replies are byte-identical to an
  // unperturbed reference session with the same request history.
  ASSERT_FALSE(healthy_bits.empty());
  Session reference(basic_config("good"));
  for (std::size_t i = 0; i < healthy_bits.size(); ++i) {
    EXPECT_EQ(healthy_bits[i], reference.submit_qasm(kProgram).bits)
        << "healthy reply " << i << " diverged beside the faulted park";
  }

  // The disk came back: reopening the name forgets the io-degraded
  // mark and builds a fresh session.
  Client fresh;
  handshake(fresh, fixture.port());
  const Client::Result reopened = fresh.open_session(basic_config("t"));
  ASSERT_FALSE(reopened.error.has_value()) << reopened.error->message;
  EXPECT_FALSE(decode_session_opened(reopened.reply.payload).restored);
}

TEST_F(ServeServerDrainTest, DrainingServerRefusesNewSessions) {
  ServeOptions options;
  options.state_dir = dir_;
  Server server(options);
  server.start();
  // Open a connection first, then start the drain while it is live:
  // in-flight connections get typed `draining` refusals for new work.
  Client client;
  client.connect(server.port());
  std::thread serving([&server] { server.serve(); });
  const Client::Result hello = client.hello("late");
  ASSERT_FALSE(hello.error.has_value());
  server.shutdown();
  // The race is benign three ways: a clean open (drain flag not yet
  // visible), the typed `draining` refusal, or the connection already
  // torn down by the finished drain (IoError / ProtocolError on the
  // half-closed socket).  What must never happen is a crash or an
  // untyped failure.
  try {
    const Client::Result opened = client.open_session(basic_config("t"));
    if (opened.error.has_value()) {
      EXPECT_EQ(opened.error->code, "draining");
    }
  } catch (const IoError&) {
  } catch (const ProtocolError&) {
  }
  client.disconnect();
  serving.join();
}

}  // namespace
}  // namespace qpf::serve
