#include "net/client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unistd.h>

#include "net/socket.h"

namespace stabletext {
namespace net {

Client::~Client() { Close(); }

Status Client::Connect(const std::string& host, uint16_t port,
                       int attempts) {
  Close();
  Status last = Status::IOError("no attempt made");
  for (int i = 0; i < std::max(1, attempts); ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    auto fd = ConnectTcp(host, port);
    if (fd.ok()) {
      fd_ = fd.value();
      return Status::OK();
    }
    last = fd.status();
  }
  return last;
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_ = FrameReader();
  pending_pushes_.clear();
}

Status Client::SendFrame(MsgType type, uint64_t request_id,
                         const std::string& body) {
  if (fd_ < 0) return Status::IOError("not connected");
  const std::string frame = EncodeFrame(type, request_id, body);
  size_t off = 0;
  while (off < frame.size()) {
    const IoOutcome io =
        WriteSome(fd_, frame.data() + off, frame.size() - off);
    if (!io.ok) {
      Close();
      return Status::IOError("connection lost while sending");
    }
    // Blocking socket: would_block cannot happen; n advances.
    off += static_cast<size_t>(io.n);
  }
  return Status::OK();
}

Result<Frame> Client::ReadFrame(int timeout_ms) {
  if (fd_ < 0) return Status::IOError("not connected");
  Frame frame;
  for (;;) {
    Status s = reader_.Next(&frame);
    if (s.ok()) return frame;
    if (s.code() != StatusCode::kNotFound) {
      Close();
      return s;  // Torn stream.
    }
    s = WaitReadable(fd_, timeout_ms);
    if (!s.ok()) return s;  // kNotFound = timeout, kIOError = poll.
    char buf[16 * 1024];
    const IoOutcome io = ReadSome(fd_, buf, sizeof(buf));
    if (!io.ok) {
      Close();
      return Status::IOError("read failed");
    }
    if (io.n == 0 && !io.would_block) {
      Close();
      return Status::IOError("connection closed by server");
    }
    if (io.n > 0) reader_.Feed(buf, static_cast<size_t>(io.n));
  }
}

Result<Frame> Client::Call(MsgType type, const std::string& body) {
  const uint64_t request_id = next_request_id_++;
  ST_RETURN_IF_ERROR(SendFrame(type, request_id, body));
  for (;;) {
    auto frame = ReadFrame(/*timeout_ms=*/30000);
    if (!frame.ok()) return frame.status();
    if (frame.value().type == MsgType::kDelta ||
        frame.value().type == MsgType::kBye) {
      pending_pushes_.push_back(std::move(frame).value());
      continue;
    }
    if (frame.value().request_id != request_id) {
      // A response to a request this helper never issued: protocol
      // violation.
      Close();
      return Status::Corruption("response for unknown request id");
    }
    return frame;
  }
}

Result<WireResult> Client::Query(const FinderQuery& query, bool render,
                                 bool* retry) {
  if (retry != nullptr) *retry = false;
  auto frame = Call(MsgType::kQuery,
                    EncodeQueryBody(query, render ? kFlagRender : 0));
  if (!frame.ok()) return frame.status();
  switch (frame.value().type) {
    case MsgType::kResult: {
      WireResult result;
      ST_RETURN_IF_ERROR(DecodeResultBody(frame.value().body, &result));
      return result;
    }
    case MsgType::kRetry: {
      if (retry != nullptr) *retry = true;
      return WireResult{};
    }
    case MsgType::kError: {
      Status remote = Status::OK();
      ST_RETURN_IF_ERROR(DecodeErrorBody(frame.value().body, &remote));
      if (remote.ok()) return Status::Corruption("ERROR frame carried OK");
      return remote;
    }
    default:
      Close();
      return Status::Corruption("unexpected response to QUERY");
  }
}

Result<WireResult> Client::QueryWithRetry(const FinderQuery& query,
                                          bool render, int max_attempts,
                                          int backoff_ms) {
  for (int attempt = 0;; ++attempt) {
    bool retry = false;
    auto result = Query(query, render, &retry);
    if (!result.ok()) return result.status();
    if (!retry) return result;
    if (attempt + 1 >= max_attempts) {
      return Status::IOError("server overloaded (RETRY after " +
                             std::to_string(max_attempts) + " attempts)");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
  }
}

Result<uint64_t> Client::Subscribe(const FinderQuery& query,
                                   bool render) {
  auto frame = Call(MsgType::kSubscribe,
                    EncodeQueryBody(query, render ? kFlagRender : 0));
  if (!frame.ok()) return frame.status();
  if (frame.value().type == MsgType::kError) {
    Status remote = Status::OK();
    ST_RETURN_IF_ERROR(DecodeErrorBody(frame.value().body, &remote));
    if (remote.ok()) return Status::Corruption("ERROR frame carried OK");
    return remote;
  }
  if (frame.value().type != MsgType::kSubscribed) {
    Close();
    return Status::Corruption("unexpected response to SUBSCRIBE");
  }
  uint64_t id = 0;
  ST_RETURN_IF_ERROR(DecodeU64Body(frame.value().body, &id));
  return id;
}

Status Client::Unsubscribe(uint64_t subscription_id) {
  auto frame =
      Call(MsgType::kUnsubscribe, EncodeU64Body(subscription_id));
  if (!frame.ok()) return frame.status();
  if (frame.value().type == MsgType::kError) {
    Status remote = Status::OK();
    ST_RETURN_IF_ERROR(DecodeErrorBody(frame.value().body, &remote));
    return remote.ok() ? Status::Corruption("ERROR frame carried OK")
                       : remote;
  }
  if (frame.value().type != MsgType::kUnsubscribed) {
    Close();
    return Status::Corruption("unexpected response to UNSUBSCRIBE");
  }
  return Status::OK();
}

Result<EngineStats> Client::Stats() {
  auto frame = Call(MsgType::kStats, "");
  if (!frame.ok()) return frame.status();
  if (frame.value().type != MsgType::kStatsResult) {
    Close();
    return Status::Corruption("unexpected response to STATS");
  }
  EngineStats stats;
  ST_RETURN_IF_ERROR(DecodeStatsBody(frame.value().body, &stats));
  return stats;
}

Result<uint64_t> Client::Ping() {
  auto frame = Call(MsgType::kPing, "");
  if (!frame.ok()) return frame.status();
  if (frame.value().type != MsgType::kPong) {
    Close();
    return Status::Corruption("unexpected response to PING");
  }
  uint64_t epoch = 0;
  ST_RETURN_IF_ERROR(DecodeU64Body(frame.value().body, &epoch));
  return epoch;
}

Result<WireDelta> Client::NextPush(int timeout_ms, bool* is_bye) {
  if (is_bye != nullptr) *is_bye = false;
  Frame frame;
  if (!pending_pushes_.empty()) {
    frame = std::move(pending_pushes_.front());
    pending_pushes_.pop_front();
  } else {
    auto read = ReadFrame(timeout_ms);
    if (!read.ok()) return read.status();
    frame = std::move(read).value();
  }
  if (frame.type == MsgType::kBye) {
    if (is_bye != nullptr) *is_bye = true;
    return WireDelta{};
  }
  if (frame.type != MsgType::kDelta) {
    Close();
    return Status::Corruption("unexpected frame while awaiting push");
  }
  WireDelta delta;
  ST_RETURN_IF_ERROR(DecodeDeltaBody(frame.body, &delta));
  return delta;
}

}  // namespace net
}  // namespace stabletext
