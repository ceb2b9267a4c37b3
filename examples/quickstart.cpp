// Quickstart: monitor one VoIP call, watch the interacting state machines,
// then watch them catch a spoofed BYE.
//
//   $ ./build/examples/quickstart
//
// Builds the Fig. 7 testbed, places a call from a0@a.example.com to
// b0@b.example.com, prints every EFSM transition the vIDS makes (the SIP
// machine walking the dialog, the δ syncs driving the RTP machine), then
// lets an attacker forge a BYE and shows the cross-protocol alert.
#include <cstdio>

#include "testbed/testbed.h"

using namespace vids;

int main() {
  // 1. A simulated enterprise deployment with the vIDS inline.
  testbed::TestbedConfig config;
  config.seed = 1;
  config.uas_per_network = 2;
  config.vids_enabled = true;
  testbed::Testbed bed(config);

  // 2. Watch the state-transition analysis live.
  bed.vids()->set_transition_trace(
      [&](const efsm::MachineInstance& machine, const efsm::Transition& t) {
        // Per-destination counters are noisy; show the per-call machines.
        if (machine.def().name() != "sip-spec" &&
            machine.def().name() != "rtp-spec") {
          return;
        }
        std::printf("  [t=%7.3fs] %-8s %s\n",
                    bed.scheduler().Now().ToSeconds(),
                    std::string(machine.name()).c_str(), t.label.c_str());
      });
  bed.vids()->set_alert_callback([&](const ids::Alert& alert) {
    std::printf(">>> ALERT: %s\n", alert.ToString().c_str());
  });

  bed.RunFor(sim::Duration::Seconds(2));  // REGISTER handshakes

  // 3. A normal call: a0 calls b0 for 20 seconds.
  std::printf("--- placing call a0 -> b0 ---\n");
  auto& caller = *bed.uas_a()[0];
  const auto call_id = caller.ua().PlaceCall(
      bed.uas_b()[0]->ua().address_of_record(), sim::Duration::Seconds(20));
  bed.RunFor(sim::Duration::Seconds(30));

  const auto& record = caller.ua().completed_calls().at(0);
  std::printf("--- call %s completed: setup delay %.1f ms, no alerts ---\n\n",
              call_id.c_str(), record.SetupDelay()->ToMillis());

  // 4. Now the same call again, but an attacker tears it down mid-stream.
  std::printf("--- placing a second call; attacker will forge a BYE ---\n");
  caller.ua().PlaceCall(bed.uas_b()[0]->ua().address_of_record(),
                        sim::Duration::Seconds(120));
  bed.RunFor(sim::Duration::Seconds(5));
  const auto snapshot = bed.eavesdropper().LatestAnswered();
  if (snapshot) {
    std::printf("--- attacker eavesdropped dialog %s; sending spoofed BYE "
                "---\n",
                snapshot->call_id.c_str());
    bed.attacker().SendSpoofedBye(*snapshot);
  }
  bed.RunFor(sim::Duration::Seconds(5));

  std::printf("\nvIDS saw %llu packets, made %llu transitions, raised %zu "
              "alert(s).\n",
              static_cast<unsigned long long>(bed.vids()->stats().packets),
              static_cast<unsigned long long>(bed.vids()->stats().transitions),
              bed.vids()->alerts().size());
  return 0;
}
