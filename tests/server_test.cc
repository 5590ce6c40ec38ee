// End-to-end tests of the tquel server: real sockets, real threads, the
// whole stack from Client::Execute through the wire protocol, a
// per-connection Session, and the concurrent service layer underneath.

#include "net/server.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "env/env.h"
#include "net/client.h"
#include "net/protocol.h"

namespace tdb {
namespace net {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  /// Thread-per-connection by default; the epoll fixture below overrides.
  virtual bool UseEpoll() const { return false; }

  void SetUp() override {
    socket_path_ = "/tmp/tquel_test_" + std::to_string(::getpid()) + "_" +
                   std::to_string(counter_++) + ".sock";
    DatabaseOptions options;
    options.env = &env_;
    registry_ = std::make_unique<DatabaseRegistry>("/dbs", options);
    ServerOptions sopts;
    sopts.unix_path = socket_path_;
    sopts.epoll = UseEpoll();
    server_ = std::make_unique<Server>(registry_.get(), sopts);
    Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  void TearDown() override { server_->Stop(); }

  Result<std::unique_ptr<Client>> Connect(const std::string& db = "testdb") {
    return Client::ConnectUnix(socket_path_, db);
  }

  static int counter_;
  MemEnv env_;
  std::string socket_path_;
  std::unique_ptr<DatabaseRegistry> registry_;
  std::unique_ptr<Server> server_;
};

int ServerTest::counter_ = 0;

/// A client that speaks raw frames, well-formed or not, with no handshake
/// of its own.  Replies time out after 10 s, so a server that neither
/// answers nor hangs up fails the test instead of hanging it.
class RawConn {
 public:
  explicit RawConn(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    timeval timeout{};
    timeout.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~RawConn() { Close(); }

  bool connected() const { return fd_ >= 0; }

  Status Send(FrameType type, const std::vector<uint8_t>& payload = {}) {
    return WriteFrame(fd_, type, payload);
  }
  /// Writes `bytes` as they are: a frame prefix the test forges.
  bool SendRaw(const std::vector<uint8_t>& bytes) {
    return ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }
  /// The server's next frame; not ok once it hung up.
  Result<Frame> Reply() {
    Frame frame;
    TDB_RETURN_NOT_OK(ReadFrame(fd_, &frame));
    return frame;
  }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

std::vector<uint8_t> StringPayload(const std::string& s) {
  std::vector<uint8_t> out;
  PutString(&out, s);
  return out;
}

/// A frame prefix: payload length `len` (u32 LE) and a type byte.
std::vector<uint8_t> Prefix(uint32_t len, FrameType type) {
  std::vector<uint8_t> out;
  PutU32(&out, len);
  PutU8(&out, static_cast<uint8_t>(type));
  return out;
}

/// Sends `type` with `payload` on a fresh connection (after a hello when
/// `hello`) and expects an error frame, after which the connection still
/// answers a ping.
void ExpectAnsweredError(const std::string& socket_path, FrameType type,
                         const std::vector<uint8_t>& payload, bool hello) {
  RawConn conn(socket_path);
  ASSERT_TRUE(conn.connected());
  if (hello) {
    ASSERT_TRUE(conn.Send(FrameType::kHello, StringPayload("testdb")).ok());
    auto ok = conn.Reply();
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    ASSERT_EQ(ok->type, FrameType::kOk);
  }
  ASSERT_TRUE(conn.Send(type, payload).ok());
  auto reply = conn.Reply();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, FrameType::kError);
  Status carried;
  ASSERT_TRUE(DecodeStatus(reply->payload, &carried).ok());
  EXPECT_FALSE(carried.ok());
  ASSERT_TRUE(conn.Send(FrameType::kPing).ok());
  auto pong = conn.Reply();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->type, FrameType::kOk);
}

/// Sends `bytes` on a fresh connection and expects an error frame or a
/// closed connection; `hang_up` closes the client's end instead.
void ExpectErrorOrClose(const std::string& socket_path,
                        const std::vector<uint8_t>& bytes, bool hang_up) {
  RawConn conn(socket_path);
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(conn.SendRaw(bytes));
  if (hang_up) return;
  auto reply = conn.Reply();
  if (reply.ok()) {
    EXPECT_EQ(reply->type, FrameType::kError);
  }
}

/// Another client is still served.
void ExpectServed(const std::string& socket_path) {
  auto client = Client::ConnectUnix(socket_path, "testdb");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE((*client)->Ping().ok());
  auto r = (*client)->Execute("create r (v = i4); destroy r");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

std::vector<uint8_t> PreparePayload() {
  std::vector<uint8_t> p;
  PutString(&p, "q");
  PutString(&p, "retrieve (x = 1)");
  return p;
}

/// An execute-prepared payload announcing `argc` arguments and holding none.
std::vector<uint8_t> ExecPreparedPayload(uint32_t argc) {
  std::vector<uint8_t> p;
  PutString(&p, "q");
  PutU32(&p, argc);
  return p;
}

void FramesBeforeHelloGetErrors(const std::string& path) {
  ExpectAnsweredError(path, FrameType::kExecute, StringPayload("help"),
                      false);
  ExpectAnsweredError(path, FrameType::kPrepare, PreparePayload(), false);
  ExpectAnsweredError(path, FrameType::kExecPrepared, ExecPreparedPayload(0),
                      false);
  ExpectAnsweredError(path, FrameType::kClose, StringPayload("q"), false);
  ExpectAnsweredError(path, FrameType::kPinAsOf, {0}, false);
  ExpectServed(path);
}

void MalformedFramesGetErrors(const std::string& path) {
  // A hello whose string is cut short.
  ExpectAnsweredError(path, FrameType::kHello, {7, 0}, false);
  // An execute whose string announces more bytes than follow.
  std::vector<uint8_t> short_script;
  PutU32(&short_script, 50);
  short_script.insert(short_script.end(), {'h', 'e', 'l'});
  ExpectAnsweredError(path, FrameType::kExecute, short_script, true);
  // An execute-prepared whose announced argument is missing.
  ExpectAnsweredError(path, FrameType::kExecPrepared, ExecPreparedPayload(1),
                      true);
  // A frame type the protocol does not define.
  ExpectAnsweredError(path, static_cast<FrameType>(99), {}, true);
  ExpectServed(path);
}

void OversizedAndTornFramesCloseOnlyTheirConnection(const std::string& path) {
  // An announced length past kMaxFrameBytes.
  ExpectErrorOrClose(path, Prefix(kMaxFrameBytes + 1, FrameType::kExecute),
                     /*hang_up=*/false);
  ExpectServed(path);
  // A truncated frame, then the client disconnects.
  std::vector<uint8_t> torn = Prefix(100, FrameType::kExecute);
  torn.insert(torn.end(), 10, 'x');
  ExpectErrorOrClose(path, torn, /*hang_up=*/true);
  ExpectServed(path);
}

TEST_F(ServerTest, ExecuteRoundTripsRowsAndMessages) {
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto results = (*client)->Execute(
      "create emp (name = c8, sal = i4);"
      "range of e is emp;"
      "append to emp (name = \"ada\", sal = 120);"
      "append to emp (name = \"bob\", sal = 80);"
      "retrieve (e.name, e.sal) where e.sal > 100");
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 5u);
  EXPECT_EQ((*results)[2].affected, 1);
  const WireResult& rows = (*results)[4];
  ASSERT_EQ(rows.columns.size(), 2u);
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0][0].AsString(), "ada     ");  // c8, blank padded
  EXPECT_EQ(rows.rows[0][1].AsInt(), 120);
}

TEST_F(ServerTest, ErrorsTravelWithStatementContext) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  auto results = (*client)->Execute(
      "create emp (sal = i4);"
      "range of e is nope");
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kBindError);
  ASSERT_NE(results.status().statement_context(), nullptr);
  EXPECT_EQ(results.status().statement_context()->statement_index, 2);
  // The connection survives a statement error.
  EXPECT_TRUE((*client)->Ping().ok());
  EXPECT_TRUE((*client)->Execute("help").ok());
}

TEST_F(ServerTest, SessionsAreIsolatedButDataIsShared) {
  auto c1 = Connect();
  auto c2 = Connect();
  ASSERT_TRUE(c1.ok() && c2.ok());
  ASSERT_TRUE((*c1)
                  ->Execute("create emp (sal = i4);"
                            "range of e is emp;"
                            "append to emp (sal = 1)")
                  .ok());
  // c2 sees the data but not c1's range declarations.
  EXPECT_FALSE((*c2)->Execute("retrieve (e.sal)").ok());
  auto rows = (*c2)->Execute("range of w is emp;"
                             "retrieve (w.sal)");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->back().rows.size(), 1u);
  EXPECT_EQ(rows->back().rows[0][0].AsInt(), 1);
}

TEST_F(ServerTest, DistinctDatabaseNamesAreDistinctDatabases) {
  auto c1 = Connect("alpha");
  auto c2 = Connect("beta");
  ASSERT_TRUE(c1.ok() && c2.ok());
  ASSERT_TRUE((*c1)->Execute("create r (v = i4)").ok());
  // beta has no relation r.
  EXPECT_FALSE((*c2)->Execute("range of x is r").ok());
  EXPECT_EQ(registry_->OpenNames(),
            (std::vector<std::string>{"alpha", "beta"}));
}

TEST_F(ServerTest, HostileDatabaseNamesAreRejected) {
  auto evil = Connect("../escape");
  EXPECT_FALSE(evil.ok());
  auto empty = Connect("");
  EXPECT_FALSE(empty.ok());
}

TEST_F(ServerTest, PinAsOfFreezesAClientsView) {
  auto writer = Connect();
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)
                  ->Execute("create persistent emp (sal = i4);"
                            "range of e is emp;"
                            "append to emp (sal = 1)")
                  .ok());
  auto reader = Connect();
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE((*reader)->Execute("range of e is emp").ok());

  // Pin the reader at the present instant, then write more.
  auto now_rows = (*reader)->Execute("retrieve (n = count(e.sal))");
  ASSERT_TRUE(now_rows.ok());
  ASSERT_EQ(now_rows->back().rows[0][0].AsInt(), 1);

  auto db = registry_->GetOrOpen("testdb");
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*reader)->PinAsOf((*db)->now()).ok());
  (*db)->AdvanceSeconds(1);  // move the clock past the pin instant
  ASSERT_TRUE((*writer)->Execute("append to emp (sal = 2)").ok());

  auto pinned = (*reader)->Execute("retrieve (n = count(e.sal))");
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(pinned->back().rows[0][0].AsInt(), 1);  // frozen

  ASSERT_TRUE((*reader)->PinAsOf(std::nullopt).ok());
  auto fresh = (*reader)->Execute("retrieve (n = count(e.sal))");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->back().rows[0][0].AsInt(), 2);
}

TEST_F(ServerTest, EightConcurrentClientsSustainAMixedWorkload) {
  {
    auto setup = Connect();
    ASSERT_TRUE(setup.ok());
    std::string script = "create shared (v = i4)";
    for (int c = 0; c < 8; ++c) {
      script += ";create own" + std::to_string(c) + " (v = i4)";
    }
    ASSERT_TRUE((*setup)->Execute(script).ok());
  }
  constexpr int kClients = 8;
  constexpr int kStatementsEach = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, &failures, c] {
      auto client = Connect();
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kStatementsEach; ++i) {
        if (!(*client)
                 ->Execute("append to shared (v = " + std::to_string(i) +
                           ");append to own" + std::to_string(c) +
                           " (v = " + std::to_string(i) + ")")
                 .ok()) {
          failures.fetch_add(1);
        }
        auto read = (*client)->Execute("range of s is shared;"
                                       "retrieve (n = count(s.v))");
        if (!read.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  auto check = Connect();
  ASSERT_TRUE(check.ok());
  auto total = (*check)->Execute("range of s is shared;"
                                 "retrieve (n = count(s.v))");
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(total->back().rows[0][0].AsInt(), kClients * kStatementsEach);
}

TEST_F(ServerTest, PreparedStatementsOverTheWire) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)
                  ->Execute("create emp (name = c8, sal = i4);"
                            "range of e is emp;"
                            "append to emp (name = \"ada\", sal = 120);"
                            "append to emp (name = \"bob\", sal = 80)")
                  .ok());
  auto prep = (*client)->Prepare(
      "highpaid", "retrieve (e.name, e.sal) where e.sal > $1");
  ASSERT_TRUE(prep.ok()) << prep.status().ToString();

  auto rows = (*client)->ExecutePrepared("highpaid", {Value::Int4(100)});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][1].AsInt(), 120);

  rows = (*client)->ExecutePrepared("highpaid", {Value::Int4(50)});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 2u);

  ASSERT_TRUE((*client)->ClosePrepared("highpaid").ok());
  EXPECT_FALSE((*client)->ExecutePrepared("highpaid", {Value::Int4(1)}).ok());
}

TEST_F(ServerTest, PreparedStatementErrorsKeepTheConnectionAlive) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Execute("create emp (sal = i4)").ok());
  // Prepare of an unbindable statement fails cleanly...
  EXPECT_FALSE((*client)->Prepare("bad", "retrieve (z.sal)").ok());
  // ...execute of an unknown name fails cleanly...
  EXPECT_FALSE((*client)->ExecutePrepared("nope", {}).ok());
  // ...close of an unknown name fails cleanly...
  EXPECT_FALSE((*client)->ClosePrepared("nope").ok());
  // ...and the connection keeps serving.
  EXPECT_TRUE((*client)->Ping().ok());
  ASSERT_TRUE((*client)->Execute("range of e is emp").ok());
  auto prep = (*client)->Prepare("good", "append to emp (sal = $1)");
  ASSERT_TRUE(prep.ok()) << prep.status().ToString();
  auto run = (*client)->ExecutePrepared("good", {Value::Int4(7)});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->affected, 1);
}

// Frame-level errors: each gets an error frame or a closed connection, and
// the server goes on serving other clients.

TEST_F(ServerTest, FramesBeforeHelloGetErrors) {
  FramesBeforeHelloGetErrors(socket_path_);
}

TEST_F(ServerTest, MalformedFramesGetErrors) {
  MalformedFramesGetErrors(socket_path_);
}

TEST_F(ServerTest, OversizedAndTornFramesCloseOnlyTheirConnection) {
  OversizedAndTornFramesCloseOnlyTheirConnection(socket_path_);
}

/// The whole ServerTest battery again on the epoll event loop: identical
/// observable behavior is the point of the dispatch abstraction.
class EpollServerTest : public ServerTest {
 protected:
  bool UseEpoll() const override { return true; }
};

TEST_F(EpollServerTest, ExecuteAndPreparedRoundTrip) {
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto results = (*client)->Execute(
      "create emp (name = c8, sal = i4);"
      "range of e is emp;"
      "append to emp (name = \"ada\", sal = 120);"
      "retrieve (e.name, e.sal) where e.sal > 100");
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  EXPECT_EQ(results->back().rows.size(), 1u);

  auto prep = (*client)->Prepare("q", "retrieve (e.sal) where e.sal > $1");
  ASSERT_TRUE(prep.ok()) << prep.status().ToString();
  auto rows = (*client)->ExecutePrepared("q", {Value::Int4(100)});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 1u);
  EXPECT_TRUE((*client)->ClosePrepared("q").ok());
}

TEST_F(EpollServerTest, StatementErrorsKeepTheConnectionAlive) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  EXPECT_FALSE((*client)->Execute("range of e is nope").ok());
  EXPECT_TRUE((*client)->Ping().ok());
  EXPECT_TRUE((*client)->Execute("help").ok());
}

TEST_F(EpollServerTest, FramesBeforeHelloGetErrors) {
  FramesBeforeHelloGetErrors(socket_path_);
}

TEST_F(EpollServerTest, MalformedFramesGetErrors) {
  MalformedFramesGetErrors(socket_path_);
}

TEST_F(EpollServerTest, OversizedAndTornFramesCloseOnlyTheirConnection) {
  OversizedAndTornFramesCloseOnlyTheirConnection(socket_path_);
}

TEST_F(EpollServerTest, ThirtyTwoClientsWithoutPerConnectionThreads) {
  {
    auto setup = Connect();
    ASSERT_TRUE(setup.ok());
    std::string script = "create shared (v = i4)";
    for (int c = 0; c < 32; ++c) {
      script += ";create own" + std::to_string(c) + " (v = i4)";
    }
    ASSERT_TRUE((*setup)->Execute(script).ok());
  }
  constexpr int kClients = 32;
  constexpr int kStatementsEach = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, &failures, c] {
      auto client = Connect();
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      if (!(*client)->Execute("range of s is shared").ok()) {
        failures.fetch_add(1);
        return;
      }
      auto prep = (*client)->Prepare(
          "ins", "append to own" + std::to_string(c) + " (v = $1)");
      if (!prep.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kStatementsEach; ++i) {
        if (!(*client)->ExecutePrepared("ins", {Value::Int4(i)}).ok() ||
            !(*client)
                 ->Execute("append to shared (v = " + std::to_string(i) + ")")
                 .ok() ||
            !(*client)->Execute("retrieve (n = count(s.v))").ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  auto check = Connect();
  ASSERT_TRUE(check.ok());
  auto total = (*check)->Execute("range of s is shared;"
                                 "retrieve (n = count(s.v))");
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(total->back().rows[0][0].AsInt(), kClients * kStatementsEach);
}

}  // namespace
}  // namespace net
}  // namespace tdb
