//===- petalbench/harness/Client.h - Load client for petal_serve ----------===//
//
// Drives a petal_serve child over its stdio pipes with Content-Length
// framed JSON-RPC, from one thread. Every response is timestamped right
// after its own frame is parsed, frame by frame: two frames that arrive in
// one read() each get their own time, never a shared one.
//
//===----------------------------------------------------------------------===//

#ifndef PETALBENCH_CLIENT_H
#define PETALBENCH_CLIENT_H

#include "Util.h"

#include <deque>
#include <string>
#include <vector>

namespace pb {

/// A JSON-RPC request payload; \p ParamsJson is a JSON object text.
std::string rpcRequest(int64_t Id, const std::string &Method,
                       const std::string &ParamsJson);

class PetaldClient {
public:
  PetaldClient() = default;
  ~PetaldClient();
  PetaldClient(const PetaldClient &) = delete;
  PetaldClient &operator=(const PetaldClient &) = delete;

  /// Spawns \p Exe with \p Args; its stderr goes to \p LogPath.
  bool spawn(const std::string &Exe, const std::vector<std::string> &Args,
             const std::string &LogPath, std::string &Err);
  /// Uses existing descriptors (the self-tests' fake server). Not owned.
  void attach(int WriteFd, int ReadFd);

  int pid() const { return Pid; }

  /// rpcRequest with a fresh id.
  std::string request(const std::string &Method, const std::string &ParamsJson,
                      int64_t &Id);

  /// Writes one framed payload; returns the send time (nowUs()) taken just
  /// before the first byte is written.
  double send(const std::string &Payload);

  struct Frame {
    JVal Msg;
    int64_t Id = -1;
    double ArrivedUs = 0; ///< right after this frame was parsed
  };
  /// Next response (blocking). False on EOF or a framing error.
  bool receive(Frame &Out);

  /// send + receive for set-up calls; false on transport failure or an
  /// error response (\p Err holds the message).
  bool call(const std::string &Method, const std::string &ParamsJson,
            JVal &Result, std::string &Err);

  /// shutdown + exit, closes the pipes and waits for the child.
  void stop();

private:
  bool fill();
  void parseFrames();

  int WFd = -1, RFd = -1;
  int Pid = -1;
  bool Owned = false;
  int64_t NextId = 1;
  std::string Buf;
  std::deque<Frame> Ready;
};

} // namespace pb

#endif // PETALBENCH_CLIENT_H
