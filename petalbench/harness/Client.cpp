//===- petalbench/harness/Client.cpp --------------------------------------===//

#include "Client.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

namespace pb {

PetaldClient::~PetaldClient() { stop(); }

bool PetaldClient::spawn(const std::string &Exe,
                         const std::vector<std::string> &Args,
                         const std::string &LogPath, std::string &Err) {
  int ToChild[2], FromChild[2];
  if (::pipe2(ToChild, O_CLOEXEC) != 0 || ::pipe2(FromChild, O_CLOEXEC) != 0) {
    Err = "pipe() failed";
    return false;
  }
  int Log = ::open(LogPath.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                   0644);
  pid_t P = ::fork();
  if (P < 0) {
    Err = "fork() failed";
    return false;
  }
  if (P == 0) {
    ::dup2(ToChild[0], 0);
    ::dup2(FromChild[1], 1);
    if (Log >= 0)
      ::dup2(Log, 2);
    ::close(ToChild[0]);
    ::close(ToChild[1]);
    ::close(FromChild[0]);
    ::close(FromChild[1]);
    std::vector<char *> Argv;
    Argv.push_back(const_cast<char *>(Exe.c_str()));
    for (const std::string &A : Args)
      Argv.push_back(const_cast<char *>(A.c_str()));
    Argv.push_back(nullptr);
    ::execv(Exe.c_str(), Argv.data());
    ::_exit(127);
  }
  if (Log >= 0)
    ::close(Log);
  ::close(ToChild[0]);
  ::close(FromChild[1]);
  WFd = ToChild[1];
  RFd = FromChild[0];
  Pid = P;
  Owned = true;
  ::signal(SIGPIPE, SIG_IGN);
  return true;
}

void PetaldClient::attach(int WriteFd, int ReadFd) {
  WFd = WriteFd;
  RFd = ReadFd;
  Owned = false;
}

std::string rpcRequest(int64_t Id, const std::string &Method,
                       const std::string &ParamsJson) {
  return "{\"jsonrpc\":\"2.0\",\"id\":" + std::to_string(Id) +
         ",\"method\":" + jsonQuote(Method) + ",\"params\":" + ParamsJson +
         "}";
}

std::string PetaldClient::request(const std::string &Method,
                                  const std::string &ParamsJson,
                                  int64_t &Id) {
  Id = NextId++;
  return rpcRequest(Id, Method, ParamsJson);
}

double PetaldClient::send(const std::string &Payload) {
  std::string Frame =
      "Content-Length: " + std::to_string(Payload.size()) + "\r\n\r\n";
  double T = nowUs();
  auto WriteAll = [&](const char *P, size_t N) {
    while (N) {
      ssize_t W = ::write(WFd, P, N);
      if (W < 0) {
        if (errno == EINTR)
          continue;
        return;
      }
      P += W;
      N -= static_cast<size_t>(W);
    }
  };
  WriteAll(Frame.data(), Frame.size());
  WriteAll(Payload.data(), Payload.size());
  return T;
}

void PetaldClient::parseFrames() {
  for (;;) {
    size_t HeaderEnd = Buf.find("\r\n\r\n");
    if (HeaderEnd == std::string::npos)
      return;
    size_t At = Buf.find("Content-Length:");
    if (At == std::string::npos || At > HeaderEnd)
      return;
    size_t Len = static_cast<size_t>(
        std::strtoull(Buf.c_str() + At + 15, nullptr, 10));
    if (Buf.size() < HeaderEnd + 4 + Len)
      return;
    Frame F;
    parseJson(std::string_view(Buf).substr(HeaderEnd + 4, Len), F.Msg);
    F.ArrivedUs = nowUs();
    if (const JVal *Id = F.Msg.get("id"); Id && Id->K == JVal::Num)
      F.Id = static_cast<int64_t>(Id->N);
    Ready.push_back(std::move(F));
    Buf.erase(0, HeaderEnd + 4 + Len);
  }
}

bool PetaldClient::fill() {
  char Chunk[65536];
  for (;;) {
    ssize_t N = ::read(RFd, Chunk, sizeof(Chunk));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Buf.append(Chunk, static_cast<size_t>(N));
    parseFrames();
    return true;
  }
}

bool PetaldClient::receive(Frame &Out) {
  while (Ready.empty())
    if (!fill())
      return false;
  Out = std::move(Ready.front());
  Ready.pop_front();
  return true;
}

bool PetaldClient::call(const std::string &Method,
                        const std::string &ParamsJson, JVal &Result,
                        std::string &Err) {
  int64_t Id;
  send(request(Method, ParamsJson, Id));
  Frame F;
  while (receive(F)) {
    if (F.Id != Id)
      continue;
    if (const JVal *E = F.Msg.get("error")) {
      Err = Method + ": " + E->str("message");
      return false;
    }
    if (const JVal *R = F.Msg.get("result"))
      Result = *R;
    return true;
  }
  Err = Method + ": connection closed";
  return false;
}

void PetaldClient::stop() {
  if (WFd < 0)
    return;
  if (Owned) {
    JVal R;
    std::string Err;
    call("shutdown", "{}", R, Err);
    send("{\"jsonrpc\":\"2.0\",\"method\":\"exit\"}");
    ::close(WFd);
    ::close(RFd);
    int Status = 0;
    ::waitpid(Pid, &Status, 0);
  }
  WFd = RFd = -1;
  Pid = -1;
}

} // namespace pb
