"""Exact values of the offline path: thresholds, labels and corpora.

Every model is trained on labels that a Kneedle calibration decides, so
a refactor of the calibration, the KPI observation noise or the corpus
assembly must leave these values bitwise as they are.  They were
recorded at commit b66e283, where the Table-1 and whole-application
calibrations were still two copies of one routine.  A value that moves
here needs a reason, not a re-record.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.datasets.configs import run_by_id
from repro.datasets.experiments import elgg_scenario, multitenant_scenario
from repro.datasets.generate import (
    build_training_corpus,
    calibrate_threshold,
    calibration_cache_info,
    clear_calibration_cache,
)
from repro.datasets.interference import (
    INTERFERENCE_SCENARIOS,
    build_interference_corpus,
)


def sha256(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


#: Run id -> (threshold, sha256 of the ramp and the observed KPI) of a
#: 100-tick calibration at seed 0, in call order.  Run 4 reuses run 3's
#: cached ramp under its own observation noise.
TABLE1_CALIBRATIONS = {
    1: (47.3476182229812,
        "c9d05466f6834ce0ab32a4a113fddda7c8e8a1c1a86897b7936fa550eaf10dde"),
    3: (521.3570506274244,
        "450d91c7ebf1cf7807227bffb5ccfba7c02a4518daad19c55890a7cee77b643c"),
    4: (529.5886169264344,
        "b578f0225bff1fa62679d08cd18a0c65d24b868973595c12ed89599dc8e9af3a"),
    12: (52799.53560617618,
         "4fbc404f406eca4df5689677308a78818491dc55bf1ba270052f5aa62f74be8c"),
    14: (1037.4440944656576,
         "d02363752b1f07b16322d743665c8130bb9f70825f7807675cc1fbeffec6dfc3"),
    25: (187.88687107589132,
         "e94b1804c22c29a65bb4a5635f2f04c46eeeadc3765397f36e82c976dd78b526"),
}


class TestCalibration:
    def test_table1_thresholds_and_cache(self):
        clear_calibration_cache()
        for run_id, (threshold, digest) in TABLE1_CALIBRATIONS.items():
            got, ramp, observed = calibrate_threshold(
                run_by_id(run_id), duration=100, seed=0
            )
            assert got == threshold, run_id
            assert sha256(ramp, observed) == digest, run_id
        # The interference victims calibrate on M3.
        got, _, _ = calibrate_threshold(
            run_by_id(2), duration=100, node="M3", seed=1
        )
        assert got == 126.04998212977314
        assert calibration_cache_info() == {"hits": 1, "misses": 6, "size": 6}

    def test_elgg_threshold_and_labels(self):
        scenario = elgg_scenario(duration=300, seed=0)
        assert scenario.threshold == 17.89048952893665
        assert sha256(scenario.y_true) == (
            "573209822e0752bd55ff58a2ba2c93f07ac56b3d2b36b0d2d138f5271246c040"
        )

    def test_teastore_and_sockshop_thresholds_and_labels(self):
        teastore, sockshop = multitenant_scenario(duration=700, seed=0)
        assert teastore.threshold == 489.53720842875686
        assert sockshop.threshold == 627.541722924057
        assert sha256(teastore.y_true, sockshop.y_true) == (
            "12427cf8a4a87eab5a122189187beaf7a50689136638d2abe37c296ae25abe1c"
        )


class TestCorpora:
    def test_training_corpus(self):
        # Runs 3 and 18 form one two-run session.
        corpus = build_training_corpus(
            duration=60, calibration_duration=80, seed=2,
            runs=[run_by_id(i) for i in (1, 3, 7, 14, 18, 24)],
        )
        assert sha256(corpus.X, corpus.y, corpus.groups) == (
            "754274254eb90d686073d98dd76fb9f3b4db9270c878c41e0752266db1e5ef17"
        )
        assert [run.threshold for run in corpus.runs] == [
            47.43980252528824, 525.5104350648596, 19150.03403078587,
            42839.99145392348, 1039.2818867521269, 193.4126268145365,
        ]

    def test_interference_corpus(self):
        # A cpu, membw and disk antagonist, a solo control and the
        # self-overload control.
        corpus = build_interference_corpus(
            duration=60, calibration_duration=80, seed=2,
            scenarios=[INTERFERENCE_SCENARIOS[i] for i in (0, 1, 2, 4, 6)],
        )
        assert sha256(corpus.X, corpus.y, corpus.cause, corpus.groups) == (
            "1e2e2621140d3a63152e27a0b4489229a2535ed7e9680f930f60393d632cbfc1"
        )
        assert [run.threshold for run in corpus.runs] == [
            125.94018300218552, 42839.99145392348, 831.4527322242623,
            125.94018300218552, 125.94018300218552,
        ]
