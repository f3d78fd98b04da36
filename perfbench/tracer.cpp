#include "tracer.h"

#include <algorithm>
#include <cstdio>

using namespace perfbench;

Tracer &perfbench::tracer() {
  static Tracer T;
  return T;
}

int64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Origin)
      .count();
}

void Tracer::start() {
  Spans.clear();
  Stack.clear();
  SyntheticCursor.clear();
  Origin = Clock::now();
  StopNs = 0;
  CurOp = LastOp = 0;
  On = true;
}

void Tracer::stop() {
  if (!On)
    return;
  StopNs = nowNs();
  while (!Stack.empty())
    close(Stack.back());
  On = false;
}

int32_t Tracer::open(const char *Name, const char *Layer) {
  Span S;
  S.Name = Name;
  S.Layer = Layer;
  S.StartNs = nowNs();
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Op = CurOp;
  Spans.push_back(S);
  int32_t Id = int32_t(Spans.size() - 1);
  Stack.push_back(Id);
  SyntheticCursor.push_back(S.StartNs);
  return Id;
}

void Tracer::close(int32_t Id) {
  if (Id < 0 || size_t(Id) >= Spans.size() || Spans[Id].EndNs >= 0)
    return;
  Spans[Id].EndNs = On ? nowNs() : StopNs;
  // Scopes close innermost-first; anything above Id was left open by an
  // early exit and ends with it.
  while (!Stack.empty()) {
    int32_t Top = Stack.back();
    Stack.pop_back();
    SyntheticCursor.pop_back();
    if (Top == Id)
      break;
    Spans[Top].EndNs = Spans[Id].EndNs;
  }
}

void Tracer::addSynthetic(const char *Name, const char *Layer,
                          double Seconds) {
  if (!On || Stack.empty() || Seconds <= 0)
    return;
  int64_t Now = nowNs();
  int64_t &Cursor = SyntheticCursor.back();
  Span S;
  S.Name = Name;
  S.Layer = Layer;
  S.StartNs = std::min(Cursor, Now);
  S.EndNs = std::min(S.StartNs + int64_t(Seconds * 1e9), Now);
  S.Parent = Stack.back();
  S.Op = CurOp;
  S.Synthetic = true;
  Cursor = S.EndNs;
  Spans.push_back(S);
}

LayerSummary Tracer::summarize() const {
  LayerSummary Sum;
  Sum.WallSeconds = double(StopNs) * 1e-9;
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  double Attributed = 0;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    double Self = double(S.EndNs - S.StartNs - ChildNs[I]) * 1e-9;
    Sum.NameSelf[S.Name] += Self;
    if (S.Layer) {
      Sum.LayerSelf[S.Layer] += Self;
      Attributed += Self;
    }
  }
  Sum.UnattributedSeconds = Sum.WallSeconds - Attributed;
  return Sum;
}

namespace {

void writeJsonString(std::FILE *F, const char *S) {
  std::fputc('"', F);
  for (; *S; ++S) {
    if (*S == '"' || *S == '\\')
      std::fputc('\\', F);
    std::fputc(*S, F);
  }
  std::fputc('"', F);
}

} // namespace

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F, "%s{\"name\":", I ? ",\n" : "");
    writeJsonString(F, S.Name);
    std::fprintf(F, ",\"cat\":");
    writeJsonString(F, S.Layer ? S.Layer : "perfbench");
    std::fprintf(F,
                 ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"span\":%zu,\"parent\":%d,\"op\":%llu%s}}",
                 double(S.StartNs) * 1e-3, double(S.EndNs - S.StartNs) * 1e-3,
                 I, S.Parent, (unsigned long long)S.Op,
                 S.Synthetic ? ",\"synthetic\":true" : "");
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}
