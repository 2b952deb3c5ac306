//===- hostref.cpp - fixed reference work for the host's speed ----------===//
//
// A fixed amount of allocation, pointer chasing, hashing and string work,
// the mix a compiler's front end and a tree-walking evaluator spend their
// time on.  It uses nothing from ../src, so its binary and its work are
// the same on every commit of the compiler.  run.py times this process
// between the measured operations; the ratio of its median time in a run
// to its time on a quiet host is the host's slowdown during that run.
//
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace {

struct Node {
  long Value;
  std::shared_ptr<Node> Next;
};

long work() {
  long Acc = 0;
  std::shared_ptr<Node> List;
  for (long I = 0; I < 20000; ++I)
    List = std::make_shared<Node>(Node{I * 7 % 1000, List});
  for (Node *N = List.get(); N; N = N->Next.get())
    Acc += N->Value;
  std::map<std::string, long> Names;
  for (long I = 0; I < 8000; ++I)
    Names["k" + std::to_string(I * 31 % 5000)] += I;
  for (const auto &[Key, Value] : Names)
    Acc += Value + static_cast<long>(Key.size());
  std::unordered_map<long, std::vector<long>> Buckets;
  for (long I = 0; I < 20000; ++I)
    Buckets[I % 613].push_back(I);
  for (const auto &[Key, Values] : Buckets)
    Acc += static_cast<long>(Values.size());
  while (List) // Iteratively, so a long list cannot overflow the stack.
    List = std::move(List->Next);
  return Acc;
}

} // namespace

int main() {
  long Acc = 0;
  for (int Round = 0; Round < 3; ++Round)
    Acc += work();
  // The checksum keeps the work from being optimized away; run.py
  // compares it with the expected value.
  std::printf("%ld\n", Acc);
  return 0;
}
