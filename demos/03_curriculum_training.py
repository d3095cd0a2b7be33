"""The full three-stage curriculum, end to end, in one script.

A compact student network trains purely from teacher consensus, never
seeing a true label:

  stage 1  trains on unanimously-labeled samples only;
  stage 2  widens to partially-agreed samples, letting the student
           overrule teachers wherever its own confidence clears tau;
  stage 3  trains on everything, restricting low-confidence predictions
           to teacher-suggested classes and adding a weak/strong
           augmentation consistency term.

The student ends well above the teachers' majority vote. True labels are
used only to report accuracies after each stage.
"""

import relidistill as rd

SEED = 6

ds = rd.make_blobs(n_samples=5000, n_classes=10, dim=16, spread=1.3, seed=SEED)
specs = [
    rd.SimTeacherSpec(acc, confusion="uniform-error", seed=SEED)
    for acc in (0.70, 0.65, 0.60)
]
pl = rd.simulate_teachers(ds, specs, n_classes=10)
part = rd.partition(pl)
print("subset sizes:", part.counts())

ensemble = rd.ensemble_baseline(pl, ds.true_labels, seed=SEED)
print(f"teachers' majority-vote accuracy: {ensemble:.4f}")
print()

configs = [
    rd.StageConfig("RKT", learning_rate=1e-2, batch_size=64, max_iter=1000),
    rd.StageConfig("SMKE", learning_rate=1e-3, batch_size=256, max_iter=1500, tau=0.7),
    rd.StageConfig(
        "MMR", learning_rate=1e-3, batch_size=128, max_iter=1500, tau=0.95, lambda_cons=0.5
    ),
]
model, run = rd.run_curriculum(ds, pl, configs, seed=SEED)

for report in run.reports:
    extra = ""
    if report.label_sources is not None:
        extra = f"  (labels: {report.label_sources})"
    print(
        f"after {report.stage:4s}: accuracy {report.accuracy:.4f}  "
        f"final loss {report.final_loss:.4f}{extra}"
    )
print()
print(f"trained in {run.total_wall_time_s:.1f}s; student beats the ensemble by "
      f"{run.reports[-1].accuracy - ensemble:+.4f}")
