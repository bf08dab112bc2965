#include "net/tcp/framing.h"

#include <cstring>
#include <utility>

#include "common/codec.h"
#include "common/crc32.h"

namespace dpaxos {

size_t BeginFrame(std::string* out) {
  const size_t frame_start = out->size();
  out->append(kFrameHeaderBytes, '\0');
  return frame_start;
}

void FinishFrame(size_t frame_start, std::string* out) {
  const size_t body_at = frame_start + kFrameHeaderBytes;
  const uint32_t header[2] = {
      static_cast<uint32_t>(out->size() - body_at),
      Crc32(std::string_view(*out).substr(body_at))};
  std::memcpy(out->data() + frame_start, header, kFrameHeaderBytes);
}

void AppendFrame(std::string_view body, std::string* out) {
  out->reserve(out->size() + kFrameHeaderBytes + body.size());
  const size_t frame = BeginFrame(out);
  out->append(body);
  FinishFrame(frame, out);
}

std::string EncodeHelloFrame(const Hello& hello) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + 10);
  const size_t start = BeginFrame(&frame);
  ByteWriter writer(&frame);
  writer.PutU8(static_cast<uint8_t>(FrameType::kHello));
  writer.PutU8(static_cast<uint8_t>(hello.kind));
  writer.PutU64(hello.id);
  FinishFrame(start, &frame);
  return frame;
}

std::string EncodeClientRequestFrame(const ClientRequest& req) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + 22 + req.key.size() + req.value.size());
  const size_t start = BeginFrame(&frame);
  ByteWriter writer(&frame);
  writer.PutU8(static_cast<uint8_t>(FrameType::kClientRequest));
  writer.PutU64(req.request_id);
  writer.PutU8(static_cast<uint8_t>(req.op));
  writer.PutString(req.key);
  writer.PutString(req.value);
  writer.PutU32(req.zone);
  FinishFrame(start, &frame);
  return frame;
}

std::string EncodeClientReplyFrame(const ClientReply& reply) {
  std::string frame;
  AppendClientReplyFrame(reply, &frame);
  return frame;
}

void AppendClientReplyFrame(const ClientReply& reply, std::string* out) {
  ByteWriter writer(out);
  writer.Reserve(kFrameHeaderBytes + 26 + reply.value.size());
  const size_t start = BeginFrame(out);
  writer.PutU8(static_cast<uint8_t>(FrameType::kClientReply));
  writer.PutU64(reply.request_id);
  writer.PutU8(reply.status_code);
  writer.PutString(reply.value);
  writer.PutU64(reply.watermark);
  writer.PutU32(reply.redirect);
  FinishFrame(start, out);
}

namespace {

Status FrameCorruption(const char* what) {
  return Status::Corruption(std::string("frame: ") + what);
}

bool ReadType(ByteReader* reader, FrameType expected) {
  uint8_t type = 0;
  return reader->ReadU8(&type) &&
         type == static_cast<uint8_t>(expected);
}

}  // namespace

Result<Hello> ParseHello(std::string_view body) {
  ByteReader reader(body);
  if (!ReadType(&reader, FrameType::kHello)) {
    return FrameCorruption("bad hello type");
  }
  uint8_t kind = 0;
  Hello hello;
  if (!reader.ReadU8(&kind) || kind > 1 || !reader.ReadU64(&hello.id) ||
      !reader.AtEnd()) {
    return FrameCorruption("malformed hello");
  }
  hello.kind = static_cast<PeerKind>(kind);
  return hello;
}

Result<ClientRequest> ParseClientRequest(std::string_view body) {
  Result<ClientRequestView> view = ParseClientRequestView(body);
  if (!view.ok()) return view.status();
  ClientRequest req;
  req.request_id = view->request_id;
  req.op = view->op;
  req.key = view->key;
  req.value = view->value;
  req.zone = view->zone;
  return req;
}

Result<ClientRequestView> ParseClientRequestView(std::string_view body) {
  ByteReader reader(body);
  if (!ReadType(&reader, FrameType::kClientRequest)) {
    return FrameCorruption("bad request type");
  }
  ClientRequestView req;
  uint8_t op = 0;
  if (!reader.ReadU64(&req.request_id) || !reader.ReadU8(&op) || op < 1 ||
      op > 3 || !reader.ReadStringView(&req.key) ||
      !reader.ReadStringView(&req.value) || !reader.ReadU32(&req.zone) ||
      !reader.AtEnd()) {
    return FrameCorruption("malformed client request");
  }
  req.op = static_cast<ClientOp>(op);
  return req;
}

Result<ClientReply> ParseClientReply(std::string_view body) {
  ByteReader reader(body);
  if (!ReadType(&reader, FrameType::kClientReply)) {
    return FrameCorruption("bad reply type");
  }
  ClientReply reply;
  if (!reader.ReadU64(&reply.request_id) ||
      !reader.ReadU8(&reply.status_code) || !reader.ReadString(&reply.value) ||
      !reader.ReadU64(&reply.watermark) || !reader.ReadU32(&reply.redirect) ||
      !reader.AtEnd()) {
    return FrameCorruption("malformed client reply");
  }
  return reply;
}

void FrameDecoder::Fail(std::string message) {
  failed_ = true;
  error_ = std::move(message);
}

void FrameDecoder::Feed(std::string_view bytes) {
  if (failed_) return;
  // Compact the consumed prefix before appending so the buffer stays
  // bounded by (one partial frame + one read chunk) regardless of how
  // long the stream runs.
  if (pos_ > 0 && (pos_ >= buffer_.size() || pos_ > 64 * 1024)) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  buffer_.append(bytes.data(), bytes.size());
}

FrameDecoder::Next FrameDecoder::Pop(std::string_view* body) {
  if (failed_) return Next::kError;
  const size_t available = buffer_.size() - pos_;
  if (available < 4) return Next::kNeedMore;
  uint32_t length = 0;
  std::memcpy(&length, buffer_.data() + pos_, 4);
  // Validate the prefix before using it for anything: a hostile length
  // must not cause a reserve, a wait for gigabytes, or an overflow.
  if (length == 0) {
    Fail("zero-length frame");
    return Next::kError;
  }
  if (length > max_frame_bytes_) {
    Fail("frame exceeds max size");
    return Next::kError;
  }
  if (available < kFrameHeaderBytes) return Next::kNeedMore;
  if (available - kFrameHeaderBytes < length) return Next::kNeedMore;
  uint32_t expected_crc = 0;
  std::memcpy(&expected_crc, buffer_.data() + pos_ + 4, 4);
  const std::string_view candidate =
      std::string_view(buffer_).substr(pos_ + kFrameHeaderBytes, length);
  // Verify before yielding: a frame that was damaged in flight but whose
  // fields would still parse must never reach the caller — mis-learned
  // state (a flipped Decide payload) is unrecoverable, a closed
  // connection is routine.
  if (Crc32(candidate) != expected_crc) {
    Fail("frame checksum mismatch");
    return Next::kError;
  }
  *body = candidate;
  pos_ += kFrameHeaderBytes + static_cast<size_t>(length);
  return Next::kFrame;
}

}  // namespace dpaxos
