#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace sky::serve {

Client::Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Result<Client> Client::Connect(int port) {
  if (port < 1 || port > 65535) {
    return Status::InvalidArgument("port " + std::to_string(port) +
                                   " is outside [1, 65535]");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Status::NotFound("connect to 127.0.0.1:" +
                               std::to_string(port) + ": " +
                               std::strerror(errno));
    ::close(fd);
    return s;
  }
  Client client(fd);
  std::string hello;
  io::wire::Writer(&hello).U32(kProtocolVersion);
  uint32_t version = 0;
  SKY_RETURN_NOT_OK(
      client.RoundTrip(FrameType::kHello, hello, FrameType::kHelloOk,
                       [&](io::wire::Cursor& c) { c.U32(version); }));
  return client;
}

Status Client::RoundTrip(
    FrameType request, const std::string& payload, FrameType expected_reply,
    const std::function<void(io::wire::Cursor&)>& read_reply) {
  SKY_RETURN_NOT_OK(WriteFrame(fd_, request, payload));
  Frame reply;
  SKY_RETURN_NOT_OK(ReadFrame(fd_, kMaxFramePayload, &reply));
  if (reply.type == FrameType::kError) return ParseError(reply);
  if (reply.type != expected_reply) {
    return Status::Internal("unexpected reply frame type");
  }
  return ParsePayload(reply.payload, read_reply);
}

Result<std::pair<uint64_t, uint64_t>> Client::OpenSession(
    const SessionSpec& spec) {
  std::string payload;
  AppendSessionSpec(spec, &payload);
  uint64_t id = 0, slot = 0;
  SKY_RETURN_NOT_OK(RoundTrip(
      FrameType::kOpenSession, payload, FrameType::kSessionOpened,
      [&](io::wire::Cursor& c) { TransferSessionOpened(c, id, slot); }));
  return std::make_pair(id, slot);
}

Result<core::EngineResult> Client::FetchResult(uint64_t id) {
  std::string payload;
  io::wire::Writer(&payload).U64(id);
  uint64_t echoed = 0;
  core::EngineResult result;
  SKY_RETURN_NOT_OK(RoundTrip(
      FrameType::kFetchResult, payload, FrameType::kResult,
      [&](io::wire::Cursor& c) { TransferResultReply(c, echoed, result); }));
  if (echoed != id) {
    return Status::Internal("result frame echoes a different session id");
  }
  return result;
}

Status Client::Reconfigure(uint64_t id, const core::StreamReconfig& changes) {
  std::string payload;
  AppendReconfigure(id, changes, &payload);
  return RoundTrip(FrameType::kReconfigure, payload, FrameType::kOk);
}

Status Client::SetSharedBudget(double core_s_per_video_s) {
  std::string payload;
  io::wire::Writer(&payload).F64(core_s_per_video_s);
  return RoundTrip(FrameType::kSetBudget, payload, FrameType::kOk);
}

Result<std::string> Client::Metrics() {
  std::string json;
  SKY_RETURN_NOT_OK(
      RoundTrip(FrameType::kMetrics, std::string(), FrameType::kMetricsReport,
                [&](io::wire::Cursor& c) { c.String(json); }));
  return json;
}

Status Client::CloseSession(uint64_t id) {
  std::string payload;
  io::wire::Writer(&payload).U64(id);
  return RoundTrip(FrameType::kCloseSession, payload, FrameType::kOk);
}

Status Client::Drain() {
  return RoundTrip(FrameType::kDrain, std::string(), FrameType::kOk);
}

}  // namespace sky::serve
