"""Golden outputs: every file a fixed set of CLI runs writes keeps its bytes.

The runs are the benchmark's study command lines at size tiny, for benchmark
seeds 0 and 3 (perfbench/workloads.py derives each study's seed from the
benchmark seed and the study name; the seeds are written out here), one
``simulate`` per public preset, the broken-quadratic continuity blow-up, and
three sweeps that reach CLI branches no benchmark study does.  Each run goes
in-process through ``cli.main``.  The sha256 of every ``report.csv``,
``report.svg``, ``audit.txt``, ``trajectory.csv`` and ``diagnostics.txt`` it
writes, of its ``manifest.ini`` without the ``output_dir`` line, and of its
stdout with the output directory replaced by a fixed token, must match the
digest recorded here.

A change that moves any output bit on purpose re-records these digests and
says so.  The digests were recorded with numpy 2.4.6 on OpenBLAS 0.3.31; a
mismatch prints both versions next to the file's two digests.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from avg_sfpde.cli import main

DIGESTED = ("report.csv", "report.svg", "audit.txt", "trajectory.csv",
            "diagnostics.txt", "manifest.ini")

FIELD_SWEEP = ("--k", "8", "--eps", "0.5,0.1,0.02", "--paths", "2",
               "--dt", "0.002", "--T", "1.0", "--threads", "2")
STUDIES = {
    "rd-sweep": ("sweep-averaging", "--preset", "reaction-diffusion-delay")
    + FIELD_SWEEP,
    "pm-sweep": ("sweep-averaging", "--preset", "porous-media-sin") + FIELD_SWEEP,
    "linear-rate": ("sweep-averaging", "--preset", "scalar-linear-osc",
                    "--eps", "0.1,0.01,0.001", "--paths", "2", "--dt", "0.0002",
                    "--T", "1.0", "--threads", "1"),
    "linear-freeze": ("sweep-khasminskii", "--preset", "scalar-linear-osc",
                      "--eps", "averaged", "--d", "0.2,0.1,0.05,0.025",
                      "--paths", "8", "--dt", "0.001", "--T", "1.0",
                      "--threads", "1"),
    "holder-continuity": ("sweep-continuity", "--preset", "scalar-holder-osc",
                          "--delta", "0.1,0.01,0.001,0.0", "--paths", "4",
                          "--eps", "0.5", "--dt", "0.001", "--T", "1.0",
                          "--threads", "1"),
    "rd-audit": ("audit", "--preset", "reaction-diffusion-delay", "--trials", "20"),
}
# each study's seed at benchmark seeds 0 and 3
STUDY_SEEDS = {
    "rd-sweep": (1393575756, 69364807),
    "pm-sweep": (2177462003, 1029118257),
    "linear-rate": (3796670532, 635330713),
    "linear-freeze": (360798533, 4080537574),
    "holder-continuity": (679571148, 3454963122),
    "rd-audit": (793773059, 4059032508),
}

RUNS = {f"{name}-{bench}": STUDIES[name] + ("--seed", str(seed))
        for name, seeds in STUDY_SEEDS.items() for bench, seed in zip((0, 3), seeds)}
RUNS.update({
    "simulate-scalar-linear-osc": ("simulate", "--preset", "scalar-linear-osc",
                                   "--T", "0.1"),
    "simulate-scalar-holder-osc": ("simulate", "--preset", "scalar-holder-osc",
                                   "--T", "0.1"),
    "simulate-reaction-diffusion-delay": ("simulate", "--preset",
                                          "reaction-diffusion-delay", "--T", "0.1",
                                          "--k", "8"),
    "simulate-porous-media-sin": ("simulate", "--preset", "porous-media-sin",
                                  "--T", "0.1", "--k", "8"),
    "broken-quadratic-blowup": ("sweep-continuity", "--preset", "broken-quadratic",
                                "--delta", "100,10,1", "--paths", "2", "--eps", "0.5"),
    # the degenerate twin without a block rule, a csv-only Khasminskii report
    # at a numeric eps, and a sweep at its preset's own dt and T
    "pm-constant-xi": ("sweep-averaging", "--preset", "porous-media-sin", "--k", "8",
                       "--eps", "0.5,0.1,0.02", "--paths", "2", "--dt", "0.002",
                       "--T", "0.2", "--constant-xi", "--d-rule", "none",
                       "--threads", "2"),
    "rd-freeze-csv": ("sweep-khasminskii", "--preset", "reaction-diffusion-delay",
                      "--k", "8", "--eps", "0.5", "--d", "0.1,0.05,0.02",
                      "--paths", "2", "--dt", "0.002", "--T", "0.2",
                      "--format", "csv"),
    "heat-freeze": ("sweep-khasminskii", "--preset", "heat-deterministic",
                    "--d", "0.2,0.1,0.05,0.025", "--paths", "2"),
})


def digests(out_dir) -> dict:
    """sha256 of each digested file the run wrote; the manifest without its
    output_dir line, which names the run's own directory."""
    found = {}
    for name in DIGESTED:
        path = out_dir / name
        if not path.exists():
            continue
        data = path.read_bytes()
        if name == "manifest.ini":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b"output_dir"))
        found[name] = hashlib.sha256(data).hexdigest()
    return found


def run_digests(name, out_dir) -> tuple[int, dict, str]:
    """The exit code of run ``name`` in ``out_dir``, its files' digests, and
    the digest of its stdout with ``out_dir`` written as ``<out>``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(RUNS[name]) + ["--out", str(out_dir)])
    printed = stdout.getvalue().replace(str(out_dir), "<out>")
    return code, digests(out_dir), hashlib.sha256(printed.encode()).hexdigest()


def _blas_version():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return "unknown"


GOLDEN = {
    "broken-quadratic-blowup": (1, {
        "diagnostics.txt":
            "139e67e9d69dff5841d8a6c8819f16f044ec716c678163d82146bd5d8c944449",
    }),
    "heat-freeze": (0, {
        "manifest.ini":
            "86c742f0912d390d072903d52760e502e9e4e924749ae56fe01cc5c45abfef5d",
        "report.csv":
            "00ae57f23616955a9b4e792b8b3068925b32c60bef202c29ce981be9ba65b288",
        "report.svg":
            "2885f7177e20acfa569e4ea2c0403d530cdb1bd501f5bf0cef17abe8cefd03da",
    }),
    "holder-continuity-0": (0, {
        "report.csv":
            "b21183bdb3dd1671f0034d030599f16f32b35c5a026b441679cac8c2a8c1accb",
        "report.svg":
            "bbc6d1742e8de68f5f519310744227eabef98b4863b1debe91e630a88e1fb842",
        "manifest.ini":
            "3568d934977093f2db8b83c4c5f2dadd59c52e4a3026e89b25364f5ffe8efb6c",
    }),
    "holder-continuity-3": (0, {
        "report.csv":
            "25b6c502c954bb07d584673f0c10fbc1cff37ca127e5d4d2abd32af4ffd1f9c3",
        "report.svg":
            "02db50a0f45f8d8811c2f83d3f3fc137e116acf958aece5046ed6185d85e5d0b",
        "manifest.ini":
            "91a81c9eb7a10a2080adfe435feaf07dfb14308e6bfa196fbd473c363746d950",
    }),
    "linear-freeze-0": (0, {
        "report.csv":
            "590d554f1db944dd1c34baf8af6b6f981d06fa31dd60da891a0bdf8f9f31e55a",
        "report.svg":
            "03a54a626c60572ba6c96be32e308bd864b31ad95fac2a67d5f77087147e2c46",
        "manifest.ini":
            "935e49c60a125b86bbccc984fe562fb5c547267f0407d653a23baa8c1866f58e",
    }),
    "linear-freeze-3": (0, {
        "report.csv":
            "b91ae3a7bacc4ccac46e1746154a32080933d3ed09693193c9b3ef5605435f0e",
        "report.svg":
            "97ea9eb367af0e9273dc5b4bb3cbae7183b0b7da5ddc38574ed0598974d7d83d",
        "manifest.ini":
            "9364a01f982dd9e8b9576fd59bff82f2ae72114da89a89d36724a841ec157f79",
    }),
    "linear-rate-0": (0, {
        "report.csv":
            "197099c1404d303662016e89f59d0ca258f2e88dd538385c5de4ec75c91e470c",
        "report.svg":
            "d315e6b50c816b6e2544e9cfbb1cb9bde8833f68b3d30cbfb84b0d7664bbb8fa",
        "manifest.ini":
            "1709316ecfa9d2484ce1a41a9e27fb8decfd9af1cff6ba0231f41039eec22f80",
    }),
    "linear-rate-3": (0, {
        "report.csv":
            "be2805f156e21ccaa15e3d5607521d70470bd9a0d278b91fc9b988caaae448d5",
        "report.svg":
            "d315e6b50c816b6e2544e9cfbb1cb9bde8833f68b3d30cbfb84b0d7664bbb8fa",
        "manifest.ini":
            "3288f6d223078aeafc13f93f91ff0ce679795b72550795d9706e405e81bd8300",
    }),
    "pm-constant-xi": (0, {
        "manifest.ini":
            "92c91f3ad769f48bffaf8bcd223899c34ab45acd4ff7f51c87d69924ea8b6619",
        "report.csv":
            "acf1cb2ab5355b6600e568a837845c92aef1e1711c87fea9da456fe961086051",
        "report.svg":
            "0295a0c29dabcc4c133c05b6786ede24f58baac1721794bd5fe2da3d1d254331",
    }),
    "pm-sweep-0": (0, {
        "report.csv":
            "7f87696c491b9def7cbf41a71129597b24e28d6aed33b6fec7adf258e1b40421",
        "report.svg":
            "719ad5ab35b592f16b35244da12a95efb5afcbd8c24c66e04270cd60eb674566",
        "manifest.ini":
            "514bf8d7e2b31d056c282e1e76dd34c320286227a456b063ece32bd548bba0b3",
    }),
    "pm-sweep-3": (0, {
        "report.csv":
            "a313beaf7cc78e97797b7f1c05af804afb8f2fa775d27a9d0932fae5bdb0681b",
        "report.svg":
            "194717d35ea1e71a579df9c92a090c8bafcd99b914f1cc95b8fb29566a3973ab",
        "manifest.ini":
            "3750f41606364aee87dfba7083105f199579527c1830d1591f448923931cd682",
    }),
    "rd-audit-0": (0, {
        "audit.txt":
            "423557bb2a65c0150ff241d20d8168fcf0028524c0b75b2f029bdeeab9678958",
        "manifest.ini":
            "6fd4b45736dcaf2b985e6d87c69eaf466691e275b5d3506d58085cc6c5dc47e7",
    }),
    "rd-audit-3": (0, {
        "audit.txt":
            "f011a1ebf2434a3802fc25ece98e04fc6031bd7cee8432fa9ebb4b6c8ea2939c",
        "manifest.ini":
            "83a1b6e87bd3c1b1a73367b557642af7206e6eab0c75afcbf274fd5b4d853d34",
    }),
    "rd-freeze-csv": (0, {
        "manifest.ini":
            "769a0c4ca11accef01a3aebbb02708e6e49b98007cf91973982b621ac6912f66",
        "report.csv":
            "7b6f0f758c5af90ebc20e93da0405ec158684d35d74bd04c0dcfeabe99cdcea8",
    }),
    "rd-sweep-0": (0, {
        "report.csv":
            "893dc40adea8d58ebecfd0656be2c426aa277e9631cb477b9cf8b0e77c264d8e",
        "report.svg":
            "0bae94aaa0d93a44fcb19eeb62bbaf7ff3c503c9c024cafb37422e119ca07500",
        "manifest.ini":
            "1c5500db9ac1268df57eb91568f30dbac7b89c51249a82aeb5fc1ccc295ac5dc",
    }),
    "rd-sweep-3": (0, {
        "report.csv":
            "78f12a5db509d7d9bdd39850058bb6653dd48af488a4b7becf01aeb13913fe7a",
        "report.svg":
            "20f98b1beb035f9131c246dc06ff74c8ebfddf37832e5f46878729474e8aeb52",
        "manifest.ini":
            "8fa8dea831469633d785e8f6876f9081b85c559165cfebe567f5f8643acafa98",
    }),
    "simulate-porous-media-sin": (0, {
        "trajectory.csv":
            "4611c67571566f9877871b5318446cfd1b9194519555600cd46287eca1b5b401",
        "manifest.ini":
            "a08a7ae30891a2a78a2154635d1ce8d1a13789096fa9aec7301935aaf1b45656",
    }),
    "simulate-reaction-diffusion-delay": (0, {
        "trajectory.csv":
            "7ad825cf0d8606f848860f3efb533a274a29c1e242122d8242d1bf35b678aef3",
        "manifest.ini":
            "1aa00c7eea4fd7022737000bb1ea48c4579b80dbec1158f41271f985343c1ad2",
    }),
    "simulate-scalar-holder-osc": (0, {
        "trajectory.csv":
            "841f95f1111ed3168c2e4c57a90f3f1bb155996d9e4a44fd9ac75e1e339f9ccb",
        "manifest.ini":
            "2bd0da490bb80e654c98d3df66a10bbe408a5c82f0ee5046963bbab7f606d76f",
    }),
    "simulate-scalar-linear-osc": (0, {
        "trajectory.csv":
            "36fcc5f61d4956ebdb3c8cb66ad332f6616cb1aaf24178820ae15cc38b6e2ba4",
        "manifest.ini":
            "bffb4b3c349ebbc1188765c028cf9cc363ea58e975e8a5cddba787b9ee675de0",
    }),
}

# each run's stdout, its output directory written as <out>
STDOUT = {
    "broken-quadratic-blowup":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "heat-freeze":
        "142e217ee547821ea087cacf0849d72813baae12b5938eb69dd65f796b19ed33",
    "holder-continuity-0":
        "1d77db2666013e243b13b535f42e228b9d4a421719452c36f4f9baa27d0ac91f",
    "holder-continuity-3":
        "7f67f0e2705c883781d5e061c938dfde8456e9abba88af4e71400feee423916c",
    "linear-freeze-0":
        "b040b5fa8cfe277f8726638ce1545af534fdbd75ccfe280de3c55956edabad64",
    "linear-freeze-3":
        "a31cf43b19509a15ba74d69adc53d5426b8cff2ffd63d5916c468efcbb5e2320",
    "linear-rate-0":
        "b663a653788d294991819978df200f21bf9b61c7ddcaabf0de708458f5847fb5",
    "linear-rate-3":
        "7782d761563c3e5a282cf623e4e0d400841402c813d2ba3d669a74e8a9c61c13",
    "pm-constant-xi":
        "a26c58750b334c5fb1cc42d16966a948db852575ea99c56fe715b11778f59bbb",
    "pm-sweep-0":
        "fb9a65ce6e577aef6fc79fc9f07f17e242bbe1104987b852c9c43ebcc44837e8",
    "pm-sweep-3":
        "bc8f75c7b902c0f754dc4429bc25183c53213dfb1dbdcb7724103436604c312c",
    "rd-audit-0":
        "423557bb2a65c0150ff241d20d8168fcf0028524c0b75b2f029bdeeab9678958",
    "rd-audit-3":
        "f011a1ebf2434a3802fc25ece98e04fc6031bd7cee8432fa9ebb4b6c8ea2939c",
    "rd-freeze-csv":
        "6982685317717fd736286ade6e27de60183dea7431bdc2385d7de7f202c79ce0",
    "rd-sweep-0":
        "de49b6054a6692ec01dddaabc8dbeda5d9bbfffba866bccd292e8c2a16f23d61",
    "rd-sweep-3":
        "f3697251632367bf8d6e0bd8bf57fbae0672c127aed28e4244ad3c79540d303e",
    "simulate-porous-media-sin":
        "5539cad0ac414565526527d09818c6c87377cd862510f64d35310b8dcc594502",
    "simulate-reaction-diffusion-delay":
        "5539cad0ac414565526527d09818c6c87377cd862510f64d35310b8dcc594502",
    "simulate-scalar-holder-osc":
        "22052b48e84e9f290b74ba65391b0f2ec6cd6a7541ba2f2ffdeac827af11a06f",
    "simulate-scalar-linear-osc":
        "cc1908393a68fc2505c61937db97a64a0f25d06b882c6c2fcfc2212f23787938",
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_writes_its_recorded_bytes(tmp_path, name):
    code, got, printed = run_digests(name, tmp_path)
    want_code, want = GOLDEN[name]
    assert code == want_code
    assert printed == STDOUT[name]
    assert sorted(got) == sorted(want)
    changed = [f"{f}: recorded {want[f]}, got {got[f]}" for f in sorted(want)
               if got[f] != want[f]]
    assert not changed, "\n".join(
        changed + [f"numpy {np.__version__}, BLAS {_blas_version()}"])
