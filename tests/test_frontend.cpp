// The shared socket front end (serve/frontend.hpp), driven through both
// of its owners: a Server, and a Router in front of one Server. Each
// case runs once per owner over a real Unix socket (the cap case over TCP
// as well) and checks what the front end alone decides: the connection
// cap, framing faults (a stalled half line, an oversized line) and the
// reaping of reader threads. One plain case checks that serve::Client
// reads a refusal that arrives before its own send fails.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "trace/generators.hpp"

namespace ocps::serve {
namespace {

using std::chrono::milliseconds;

constexpr std::size_t kCapacity = 64;

// The front end's frame cap: a line longer than this is refused.
constexpr std::size_t kLineCap = 1 << 20;

std::vector<ProgramModel> make_models() {
  std::vector<ProgramModel> models;
  models.push_back(make_program_model(
      "prog0", 0.5, compute_footprint(make_cyclic(20000, 20)), kCapacity));
  models.push_back(make_program_model(
      "prog1", 0.75, compute_footprint(make_zipf(20000, 63, 0.8, 101)),
      kCapacity));
  return models;
}

std::string unique_socket_path(const char* tag) {
  static std::atomic<int> seq{0};
  return "/tmp/ocps_ftest_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(seq.fetch_add(1)) + ".sock";
}

const char* kPartition =
    R"({"id":7,"op":"partition","programs":["prog0","prog1"]})";

/// A blocking raw connection (no framing help), with a 10 s read bound
/// so a missing answer fails the test instead of hanging it.
int raw_connect(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  timeval bound{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &bound, sizeof(bound));
  return fd;
}

bool send_bytes(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::string read_until_closed(int fd) {
  std::string out;
  char buf[512];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0)
    out.append(buf, static_cast<std::size_t>(n));
  return out;
}

std::size_t maps_lines() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

enum class Owner { kServer, kRouter };

class FrontendTest : public ::testing::TestWithParam<Owner> {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::reset_metrics();
  }

  /// Starts the owner under test with these front-end knobs, listening
  /// on a Unix socket (path_) and an ephemeral TCP port (tcp_).
  void start(std::size_t max_connections = 256,
             milliseconds io_timeout = milliseconds(5000)) {
    ServeConfig backend;
    backend.socket_path = unique_socket_path("srv");
    backend.capacity = kCapacity;
    RouterConfig router;
    router.socket_path = unique_socket_path("rtr");
    router.backends = {backend.socket_path};
    FrontendConfig* front = &backend;
    if (GetParam() == Owner::kRouter) front = &router;
    front->listen_address = "127.0.0.1:0";
    front->max_connections = max_connections;
    front->io_timeout = io_timeout;
    server_ = std::make_unique<Server>(backend, make_models());
    ASSERT_TRUE(server_->start().ok());
    path_ = backend.socket_path;
    tcp_ = "127.0.0.1:" + std::to_string(server_->bound_listen_port());
    if (GetParam() == Owner::kServer) return;

    router_ = std::make_unique<Router>(router);
    ASSERT_TRUE(router_->start().ok());
    path_ = router.socket_path;
    tcp_ = "127.0.0.1:" + std::to_string(router_->bound_listen_port());
  }

  std::uint64_t malformed() const {
    return router_ ? router_->counters().malformed
                   : server_->counters().malformed;
  }

  std::unique_ptr<Server> server_;
  std::unique_ptr<Router> router_;  ///< after server_: stops first
  std::string path_;
  std::string tcp_;
};

TEST_P(FrontendTest, ConnectionOverTheCapGets503WhileAdmittedOneWorks) {
  ASSERT_NO_FATAL_FAILURE(start(/*max_connections=*/1));
  Result<Client> admitted = Client::connect(tcp_);
  ASSERT_TRUE(admitted.ok());
  // The first answer proves the connection is registered before the
  // second one arrives (admission is asynchronous).
  ASSERT_TRUE(admitted.value().call(kPartition).ok());

  for (const std::string& endpoint : {tcp_, path_}) {
    Result<Client> extra = Client::connect(endpoint);
    ASSERT_TRUE(extra.ok()) << endpoint;  // the refusal is in-band
    // Let the front end refuse and close first. Over a Unix socket the
    // request then fails to send (EPIPE) with the 503 already queued.
    std::this_thread::sleep_for(milliseconds(50));
    Result<Response> refused = extra.value().call(kPartition);
    ASSERT_TRUE(refused.ok()) << endpoint << ": " << refused.error().message;
    EXPECT_FALSE(refused.value().ok) << endpoint;
    EXPECT_EQ(refused.value().code, kCodeShuttingDown) << endpoint;
  }

  Result<Response> still = admitted.value().call(kPartition);
  ASSERT_TRUE(still.ok()) << still.error().message;
  EXPECT_TRUE(still.value().ok) << still.value().error;
  EXPECT_EQ(malformed(), 0u);
}

TEST_P(FrontendTest, StalledHalfLineGets400AfterIoTimeout) {
  ASSERT_NO_FATAL_FAILURE(start(256, milliseconds(200)));
  int fd = raw_connect(path_);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_bytes(fd, R"({"id":1,"op":"par)"));  // never finished
  std::string out = read_until_closed(fd);
  ::close(fd);
  EXPECT_NE(out.find("\"code\":400"), std::string::npos) << out;
  EXPECT_NE(out.find("stalled"), std::string::npos) << out;
  EXPECT_EQ(malformed(), 1u);
}

TEST_P(FrontendTest, LineOverOneMebibyteGets400) {
  ASSERT_NO_FATAL_FAILURE(start());
  int fd = raw_connect(path_);
  ASSERT_GE(fd, 0);
  // One byte over the cap and no newline: the reader consumes all of it,
  // then refuses the frame.
  ASSERT_TRUE(send_bytes(fd, std::string(kLineCap + 1, 'x')));
  std::string out = read_until_closed(fd);
  ::close(fd);
  EXPECT_NE(out.find("\"code\":400"), std::string::npos) << out;
  EXPECT_NE(out.find("too long"), std::string::npos) << out;
  EXPECT_EQ(malformed(), 1u);
}

TEST_P(FrontendTest, ReadersOfClosedConnectionsAreReaped) {
  // Each reader thread keeps its stack mapped until it is joined, so an
  // unreaped reader per one-shot client grows /proc/self/maps by about
  // two lines.
  ASSERT_NO_FATAL_FAILURE(start());
  auto one_shot = [&] {
    Result<Client> c = Client::connect(path_);
    ASSERT_TRUE(c.ok()) << c.error().message;
    Result<Response> r = c.value().call(R"({"id":1,"op":"health"})");
    ASSERT_TRUE(r.ok() && r.value().ok);
  };
  for (int i = 0; i < 10; ++i) ASSERT_NO_FATAL_FAILURE(one_shot());
  const std::size_t before = maps_lines();
  for (int i = 0; i < 300; ++i) ASSERT_NO_FATAL_FAILURE(one_shot());
  EXPECT_LT(maps_lines(), before + 50);
}

TEST(ClientTest, CallReturnsTheLineQueuedBeforeItsSendFails) {
  // A peer that answers one line and closes before the client sends: the
  // send fails with EPIPE, and the answer waiting in the receive queue is
  // what call() returns.
  const std::string path = unique_socket_path("peer");
  int listener = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  Result<Client> client = Client::connect(path);
  ASSERT_TRUE(client.ok()) << client.error().message;
  const int peer = ::accept(listener, nullptr, nullptr);
  ::close(listener);
  ::unlink(path.c_str());
  ASSERT_GE(peer, 0);
  const std::string refusal =
      R"j({"id":0,"ok":false,"code":503,"error":"over the cap (1)"})j";
  ASSERT_TRUE(send_bytes(peer, refusal + "\n"));
  ::close(peer);

  Result<Response> r = client.value().call(kPartition);
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_FALSE(r.value().ok);
  EXPECT_EQ(r.value().code, kCodeShuttingDown);
  EXPECT_EQ(r.value().error, "over the cap (1)");
}

INSTANTIATE_TEST_SUITE_P(Owners, FrontendTest,
                         ::testing::Values(Owner::kServer, Owner::kRouter),
                         [](const ::testing::TestParamInfo<Owner>& info) {
                           return info.param == Owner::kServer ? "Server"
                                                               : "Router";
                         });

}  // namespace
}  // namespace ocps::serve
