#include "client/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

namespace rewinddb {
namespace client {

Result<std::unique_ptr<Client>> Client::Connect(
    const std::string& host, uint16_t port, const std::string& client_name) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + strerror(errno));
  }
  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad server address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Status::IoError("connect " + host + ":" +
                               std::to_string(port) + ": " + strerror(errno));
    ::close(fd);
    return s;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  std::unique_ptr<Client> c(new Client(fd));
  std::string hello;
  PutFixed32(&hello, net::kProtocolVersion);
  PutLengthPrefixed(&hello, Slice(client_name));
  // Decoded in place: moving the reply out of its Result first makes
  // GCC 12 warn that the string may be used uninitialized.
  Result<std::string> reply = c->RoundTrip(net::Op::kHello, hello);
  if (!reply.ok()) return reply.status();
  Decoder dec{Slice(*reply)};
  Slice banner;
  if (!dec.GetFixed64(&c->session_id_) || !dec.GetLengthPrefixed(&banner)) {
    return Status::Corruption("malformed HELLO reply");
  }
  c->banner_.assign(banner.data(), banner.size());
  return c;
}

Client::~Client() {
  if (fd_ >= 0) {
    if (!broken_) {
      // Best-effort GOODBYE so the server logs a clean departure; the
      // close itself is what tears the session down.
      std::string frame = net::EncodeRequest(net::Op::kGoodbye, session_id_,
                                             std::string());
      net::WriteFull(fd_, frame.data(), frame.size());
    }
    ::close(fd_);
  }
}

Result<std::string> Client::RoundTrip(net::Op op, const std::string& payload) {
  if (fd_ < 0 || broken_) {
    return Status::IoError("connection is closed or desynchronized");
  }
  std::string frame = net::EncodeRequest(op, session_id_, payload);
  Status ws = net::WriteFull(fd_, frame.data(), frame.size());
  if (!ws.ok()) {
    broken_ = true;
    return ws;
  }
  std::string body;
  Status rs = net::ReadFrame(fd_, net::kMaxFrameBytes, &body);
  if (!rs.ok()) {
    broken_ = true;
    if (rs.IsNotFound()) {
      return Status::IoError("server closed the connection");
    }
    return rs;
  }
  net::ResponseView resp;
  Status ps = net::ParseResponse(Slice(body), &resp);
  if (!ps.ok()) {
    broken_ = true;
    return ps;
  }
  if (resp.op != op) {
    // A busy server answers the HELLO it never read with kHello; any
    // other mismatch means the stream lost a frame.
    if (!(op == net::Op::kHello && !resp.status.ok())) {
      broken_ = true;
      return Status::Corruption("response opcode mismatch");
    }
  }
  if (!resp.status.ok()) return resp.status;
  return std::string(resp.payload.data(), resp.payload.size());
}

Status Client::SimpleCall(net::Op op, const std::string& payload) {
  Result<std::string> r = RoundTrip(op, payload);
  return r.ok() ? Status::OK() : r.status();
}

Result<Client::ExecuteResult> Client::Execute(const std::string& sql) {
  std::string payload;
  PutLengthPrefixed(&payload, Slice(sql));
  REWIND_ASSIGN_OR_RETURN(std::string reply,
                          RoundTrip(net::Op::kExecute, payload));
  Decoder dec{Slice(reply)};
  Slice msg;
  ExecuteResult out;
  if (!dec.GetLengthPrefixed(&msg)) {
    return Status::Corruption("malformed EXECUTE reply");
  }
  out.message.assign(msg.data(), msg.size());
  Slice flag;
  if (!dec.GetBytes(1, &flag)) {
    return Status::Corruption("malformed EXECUTE reply: missing rowset flag");
  }
  if (flag.data()[0] != 0) {
    out.has_rowset = true;
    if (!net::DecodeRowset(&dec, &out.rowset)) {
      return Status::Corruption("malformed EXECUTE rowset");
    }
  }
  return out;
}

Result<uint64_t> Client::Begin() {
  REWIND_ASSIGN_OR_RETURN(std::string reply,
                          RoundTrip(net::Op::kBegin, std::string()));
  Decoder dec{Slice(reply)};
  uint64_t txn_id;
  if (!dec.GetFixed64(&txn_id)) {
    return Status::Corruption("malformed BEGIN reply");
  }
  return txn_id;
}

Status Client::Commit() {
  return SimpleCall(net::Op::kCommit, std::string(1, '\0'));
}

Status Client::Commit(CommitMode mode) {
  std::string payload(1, static_cast<char>(static_cast<uint8_t>(mode) + 1));
  return SimpleCall(net::Op::kCommit, payload);
}

Status Client::Rollback() {
  return SimpleCall(net::Op::kRollback, std::string());
}

namespace {
std::string TableRowPayload(const std::string& table, const Row& row) {
  std::string p;
  PutLengthPrefixed(&p, Slice(table));
  net::EncodeWireRow(row, &p);
  return p;
}
}  // namespace

Status Client::Insert(const std::string& table, const Row& row) {
  return SimpleCall(net::Op::kInsert, TableRowPayload(table, row));
}

Status Client::Update(const std::string& table, const Row& row) {
  return SimpleCall(net::Op::kUpdate, TableRowPayload(table, row));
}

Status Client::Delete(const std::string& table, const Row& key_values) {
  return SimpleCall(net::Op::kDelete, TableRowPayload(table, key_values));
}

Result<Row> Client::Get(const std::string& table, const Row& key_values,
                        uint64_t view) {
  std::string payload;
  PutFixed64(&payload, view);
  PutLengthPrefixed(&payload, Slice(table));
  net::EncodeWireRow(key_values, &payload);
  REWIND_ASSIGN_OR_RETURN(std::string reply,
                          RoundTrip(net::Op::kGet, payload));
  Decoder dec{Slice(reply)};
  net::Rowset rs;
  if (!net::DecodeRowset(&dec, &rs) || rs.rows.size() != 1) {
    return Status::Corruption("malformed GET reply");
  }
  return std::move(rs.rows[0]);
}

Result<Client::ScanResult> Client::Scan(const std::string& table,
                                        const std::optional<Row>& lower,
                                        const std::optional<Row>& upper,
                                        uint32_t limit, uint64_t view) {
  std::string payload;
  PutFixed64(&payload, view);
  PutLengthPrefixed(&payload, Slice(table));
  payload.push_back(lower.has_value() ? 1 : 0);
  if (lower) net::EncodeWireRow(*lower, &payload);
  payload.push_back(upper.has_value() ? 1 : 0);
  if (upper) net::EncodeWireRow(*upper, &payload);
  PutFixed32(&payload, limit);
  REWIND_ASSIGN_OR_RETURN(std::string reply,
                          RoundTrip(net::Op::kScan, payload));
  Decoder dec{Slice(reply)};
  Slice more;
  ScanResult out;
  if (!dec.GetBytes(1, &more) || !net::DecodeRowset(&dec, &out.rowset)) {
    return Status::Corruption("malformed SCAN reply");
  }
  out.more = more.data()[0] != 0;
  return out;
}

Result<uint64_t> Client::Count(const std::string& table, uint64_t view) {
  std::string payload;
  PutFixed64(&payload, view);
  PutLengthPrefixed(&payload, Slice(table));
  REWIND_ASSIGN_OR_RETURN(std::string reply,
                          RoundTrip(net::Op::kCount, payload));
  Decoder dec{Slice(reply)};
  uint64_t n;
  if (!dec.GetFixed64(&n)) return Status::Corruption("malformed COUNT reply");
  return n;
}

Result<Client::ViewInfo> Client::ViewCall(net::Op op,
                                          const std::string& payload) {
  // Decoded in place, as in Connect.
  Result<std::string> reply = RoundTrip(op, payload);
  if (!reply.ok()) return reply.status();
  Decoder dec{Slice(*reply)};
  ViewInfo v;
  if (!dec.GetFixed64(&v.handle) || !dec.GetFixed64(&v.as_of)) {
    return Status::Corruption("malformed view reply");
  }
  return v;
}

Result<Client::ViewInfo> Client::AsOf(uint64_t micros) {
  std::string payload;
  PutFixed64(&payload, micros);
  return ViewCall(net::Op::kAsOf, payload);
}

Result<Client::ViewInfo> Client::OpenSnapshot(const std::string& name) {
  std::string payload;
  PutLengthPrefixed(&payload, Slice(name));
  return ViewCall(net::Op::kOpenSnapshot, payload);
}

Status Client::ReleaseView(uint64_t handle) {
  std::string payload;
  PutFixed64(&payload, handle);
  return SimpleCall(net::Op::kReleaseView, payload);
}

Result<net::Rowset> Client::ListTables(uint64_t view) {
  std::string payload;
  PutFixed64(&payload, view);
  REWIND_ASSIGN_OR_RETURN(std::string reply,
                          RoundTrip(net::Op::kListTables, payload));
  Decoder dec{Slice(reply)};
  net::Rowset rs;
  if (!net::DecodeRowset(&dec, &rs)) {
    return Status::Corruption("malformed LIST TABLES reply");
  }
  return rs;
}

Status Client::Ping() { return SimpleCall(net::Op::kPing, std::string()); }

}  // namespace client
}  // namespace rewinddb
