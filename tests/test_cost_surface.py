"""Pinned cost surface of every built-in platform.

One row per (platform, task, batch size): every built-in platform,
every :data:`test_cost_model_units.TASKS` entry and batch sizes 1, 2
and 8.  ``latency_s`` and ``effective_tflops`` are pinned bit for bit
(``float.hex``); ``cycles_per_step``, ``power_w``, ``notes`` and
``batch_size`` exactly.  Each row is served by a fresh engine whose one
compile ran at *another* length of the task's family, so every row also
pins the re-costing of a length variant from a shared compiled model.

Regenerate the tables only for a deliberate cost-model change; any
refactor of the platform contract or the engine must leave them as
they are.
"""

from __future__ import annotations

import pytest
from test_cost_model_units import TASKS

from repro.serving import ServingEngine, available_platforms

BATCH_SIZES = (1, 2, 8)

#: (platform, task name) -> (cycles_per_step, power_w hex, notes).
_STATIC = {
    ("brainwave", "lstm-h512-t25"): (702, None, ("8 MVM + 5 MFU instrs/step",)),
    ("brainwave", "lstm-h2048-t25"): (702, None, ("8 MVM + 5 MFU instrs/step",)),
    ("brainwave", "gru-h512-t1"): (648, None, ("6 MVM + 6 MFU instrs/step",)),
    ("brainwave", "gru-h2816-t750"): (900, None, ("6 MVM + 6 MFU instrs/step",)),
    ("brainwave", "lstm-h512-t7"): (702, None, ("8 MVM + 5 MFU instrs/step",)),
    ("brainwave", "lstm-h512-t500"): (702, None, ("8 MVM + 5 MFU instrs/step",)),
    ("brainwave", "lstm-h512-l2-t25"): (702, None, ("8 MVM + 5 MFU instrs/step",)),
    ("brainwave", "gru-h1536-l3-t150"): (648, None, ("6 MVM + 6 MFU instrs/step",)),
    ("brainwave", "gru-h512-t25d10"): (648, None, ("6 MVM + 6 MFU instrs/step",)),
    ("brainwave", "lstm-h1024-l2-t30d30"): (702, None, ("8 MVM + 5 MFU instrs/step",)),
    ("cpu", "lstm-h512-t25"): (None, None, ()),
    ("cpu", "lstm-h2048-t25"): (None, None, ()),
    ("cpu", "gru-h512-t1"): (None, None, ()),
    ("cpu", "gru-h2816-t750"): (None, None, ()),
    ("cpu", "lstm-h512-t7"): (None, None, ()),
    ("cpu", "lstm-h512-t500"): (None, None, ()),
    ("cpu", "lstm-h512-l2-t25"): (None, None, ()),
    ("cpu", "gru-h1536-l3-t150"): (None, None, ()),
    ("cpu", "gru-h512-t25d10"): (None, None, ()),
    ("cpu", "lstm-h1024-l2-t30d30"): (None, None, ()),
    ("gpu", "lstm-h512-t25"): (None, None, ()),
    ("gpu", "lstm-h2048-t25"): (None, None, ()),
    ("gpu", "gru-h512-t1"): (None, None, ()),
    ("gpu", "gru-h2816-t750"): (None, None, ()),
    ("gpu", "lstm-h512-t7"): (None, None, ()),
    ("gpu", "lstm-h512-t500"): (None, None, ()),
    ("gpu", "lstm-h512-l2-t25"): (None, None, ()),
    ("gpu", "gru-h1536-l3-t150"): (None, None, ()),
    ("gpu", "gru-h512-t25d10"): (None, None, ()),
    ("gpu", "lstm-h1024-l2-t30d30"): (None, None, ()),
    ("plasticine", "lstm-h512-t25"): (
        568,
        "0x1.ccaa2f9828621p+5",
        ("[x,h] replicated 400x for dot-PCU bandwidth",),
    ),
    ("plasticine", "lstm-h2048-t25"): (
        4295,
        "0x1.a661e12ea7e0fp+6",
        (
            "[x,h] replicated 512x for dot-PCU bandwidth",
            "weights exceed on-chip capacity (35.2 MB > 31.5 MB)",
        ),
    ),
    ("plasticine", "gru-h512-t1"): (
        450,
        "0x1.c6488b722ff80p+5",
        ("[x,h] replicated 384x for dot-PCU bandwidth",),
    ),
    ("plasticine", "gru-h2816-t750"): (
        6987,
        "0x1.90db4f29ca7dep+6",
        (
            "[x,h] replicated 600x for dot-PCU bandwidth",
            "weights exceed on-chip capacity (48.7 MB > 31.5 MB)",
        ),
    ),
    ("plasticine", "lstm-h512-t7"): (
        568,
        "0x1.ccaa2f9828621p+5",
        ("[x,h] replicated 400x for dot-PCU bandwidth",),
    ),
    ("plasticine", "lstm-h512-t500"): (
        568,
        "0x1.ccaa2f9828621p+5",
        ("[x,h] replicated 400x for dot-PCU bandwidth",),
    ),
    ("plasticine", "lstm-h512-l2-t25"): (
        568,
        "0x1.ccaa2f9828621p+5",
        (
            "[x,h] replicated 400x for dot-PCU bandwidth",
            "2 layer(s) time-multiplex one mapped cell",
        ),
    ),
    ("plasticine", "gru-h1536-l3-t150"): (
        2067,
        "0x1.7bfa277bd3834p+6",
        (
            "[x,h] replicated 600x for dot-PCU bandwidth",
            "3 layer(s) time-multiplex one mapped cell",
        ),
    ),
    ("plasticine", "gru-h512-t25d10"): (
        450,
        "0x1.c6488b722ff80p+5",
        (
            "[x,h] replicated 384x for dot-PCU bandwidth",
            "1 layer(s) + a 10-step decoder leg time-multiplex one mapped cell",
        ),
    ),
    ("plasticine", "lstm-h1024-l2-t30d30"): (
        1223,
        "0x1.81a1a35000ab9p+6",
        (
            "[x,h] replicated 512x for dot-PCU bandwidth",
            "2 layer(s) + a 30-step decoder leg time-multiplex one mapped cell",
        ),
    ),
}

#: (platform, task name) -> one (latency_s hex, effective_tflops hex)
#: pair per batch size in BATCH_SIZES.
_SURFACE = {
    ("brainwave", "lstm-h512-t25"): (
        ("0x1.520f974cb83f7p-14", "0x1.4d0be58dca29ap+0"),
        ("0x1.b77aab16ef85bp-14", "0x1.00308931fdf8ap+1"),
        ("0x1.05ff48750ecadp-12", "0x1.adbcc51a0d1cep+1"),
    ),
    ("brainwave", "lstm-h2048-t25"): (
        ("0x1.520f974cb83f7p-14", "0x1.4d0be58dca29ap+4"),
        ("0x1.b77aab16ef85bp-14", "0x1.00308931fdf8ap+5"),
        ("0x1.05ff48750ecadp-12", "0x1.adbcc51a0d1cep+5"),
    ),
    ("brainwave", "gru-h512-t1"): (
        ("0x1.b3f06e22d9850p-17", "0x1.efe0d89fb94c7p-3"),
        ("0x1.1b5c4796a6fcep-16", "0x1.7d71e1b5f0ffbp-2"),
        ("0x1.51da555b022d9p-15", "0x1.3febe69898946p-1"),
    ),
    ("brainwave", "gru-h2816-t750"): (
        ("0x1.6341eeb7d91fcp-9", "0x1.a54d880bb3ee7p+4"),
        ("0x1.cdd5b655670fbp-9", "0x1.4414414414414p+5"),
        ("0x1.13531901aeabdp-7", "0x1.0fceec6aa5a21p+6"),
    ),
    ("brainwave", "lstm-h512-t7"): (
        ("0x1.f841897c03f65p-16", "0x1.f4255a7fe44cap-1"),
        ("0x1.47c432f702935p-15", "0x1.80ba459d7489bp+0"),
        ("0x1.86cc642683122p-14", "0x1.42acbe840f292p+1"),
    ),
    ("brainwave", "lstm-h512-t500"): (
        ("0x1.72c6c6f94e351p-10", "0x1.7b9334aec667fp+0"),
        ("0x1.e2026910e5ab6p-10", "0x1.23fb14d536289p+1"),
        ("0x1.1f5a0d679c9c5p-8", "0x1.e9c63376294c4p+1"),
    ),
    ("brainwave", "lstm-h512-l2-t25"): (
        ("0x1.3c40222efef11p-13", "0x1.6403e3bae0eebp+0"),
        ("0x1.9b202c704b6cap-13", "0x1.11db9b7c0f7c8p+1"),
        ("0x1.ea3034fc0b28ep-12", "0x1.cb5fdb85c7657p+1"),
    ),
    ("brainwave", "gru-h1536-l3-t150"): (
        ("0x1.347db60e44666p-10", "0x1.5a6fb78941fd1p+3"),
        ("0x1.9109d3128c1ebp-10", "0x1.0a7d521ad04c8p+4"),
        ("0x1.de2940961d384p-9", "0x1.bf03c387d1048p+4"),
    ),
    ("brainwave", "gru-h512-t25d10"): (
        ("0x1.a820c5f33ed17p-14", "0x1.16bc42ad39794p+0"),
        ("0x1.13aee7114f3b6p-13", "0x1.acd2dcbbbae1ep+0"),
        ("0x1.48b2ffcfb7159p-12", "0x1.67a89819526aep+1"),
    ),
    ("brainwave", "lstm-h1024-l2-t30d30"): (
        ("0x1.6c3bbd70636a6p-12", "0x1.72f01fdcc5920p+2"),
        ("0x1.d980dcabb470cp-12", "0x1.1d563fe4e6bf0p+3"),
        ("0x1.1a47e603e6a5bp-10", "0x1.dea1315eee69bp+3"),
    ),
    ("cpu", "lstm-h512-t25"): (
        ("0x1.8bb3867af0c09p-7", "0x1.1c88659b27ec0p-7"),
        ("0x1.642192a1d8ad5p-6", "0x1.3c25c63a9e22bp-7"),
        ("0x1.46741bbf069eep-4", "0x1.58e363e2db0eap-7"),
    ),
    ("cpu", "lstm-h2048-t25"): (
        ("0x1.a374d69ad5cf6p-2", "0x1.0c6b379bfd8fcp-8"),
        ("0x1.7982c124f3a10p-1", "0x1.2a3e3dc9c466dp-8"),
        ("0x1.5a0d310c89fe4p+1", "0x1.455b2c21ed878p-8"),
    ),
    ("cpu", "gru-h512-t1"): (
        ("0x1.897dce17860f0p-11", "0x1.12af7d4196cf2p-8"),
        ("0x1.62246caec573fp-10", "0x1.3134c40ffce62p-8"),
        ("0x1.44a163a034ff9p-8", "0x1.4cf3be9d13e3dp-8"),
    ),
    ("cpu", "gru-h2816-t750"): (
        ("0x1.1687c9514130cp+4", "0x1.0cae0a9f02eccp-8"),
        ("0x1.f55ad0c57557cp+4", "0x1.2a887d943c238p-8"),
        ("0x1.cb933f5fab907p+6", "0x1.45ac2be7876c9p-8"),
    ),
    ("cpu", "lstm-h512-t7"): (
        ("0x1.e0ef250f73c7dp-9", "0x1.06331f2b93a4fp-7"),
        ("0x1.b0d73af44e9a3p-8", "0x1.23553f13f9620p-7"),
        ("0x1.8cc54b5ff2b80p-6", "0x1.3dd15c15ca3c5p-7"),
    ),
    ("cpu", "lstm-h512-t500"): (
        ("0x1.df0fd15e1428ep-3", "0x1.25c6fe72a6d67p-7"),
        ("0x1.af27d607def1ap-2", "0x1.466b539bd5d1ep-7"),
        ("0x1.8b39d98737082p+0", "0x1.6417fe1e5d9f2p-7"),
    ),
    ("cpu", "lstm-h512-l2-t25"): (
        ("0x1.8525cdc029afdp-6", "0x1.2153186581213p-7"),
        ("0x1.5e3b9f9358b7ep-5", "0x1.4178c5c61db31p-7"),
        ("0x1.410bfcf1bbfdep-3", "0x1.5eb24c1df1da9p-7"),
    ),
    ("cpu", "gru-h1536-l3-t150"): (
        ("0x1.8dda011a24c78p+1", "0x1.0c9fc64d195abp-8"),
        ("0x1.661100fdede6cp+2", "0x1.2a78a3721c2bep-8"),
        ("0x1.483a40e8c4be3p+4", "0x1.459ae0d99318ap-8"),
    ),
    ("cpu", "gru-h512-t25d10"): (
        ("0x1.9f1e213694caep-7", "0x1.1cc914f6a974cp-7"),
        ("0x1.759b1de452b6ap-6", "0x1.3c6da583d8ba9p-7"),
        ("0x1.5678db66a1276p-4", "0x1.5931cbd5a69d0p-7"),
    ),
    ("cpu", "lstm-h1024-l2-t30d30"): (
        ("0x1.f75ba09d4b487p-2", "0x1.0c69d1bf3e5c0p-8"),
        ("0x1.c505aa272a27ap-1", "0x1.2a3cb029d382ap-8"),
        ("0x1.9f45314e914efp+1", "0x1.45597a5c2c8e9p-8"),
    ),
    ("gpu", "lstm-h512-t25"): (
        ("0x1.831d41193aa46p-11", "0x1.22d825d177988p-3"),
        ("0x1.d089815179920p-11", "0x1.e4bd945d1ca8ep-3"),
        ("0x1.d08981517991ep-10", "0x1.e4bd945d1ca90p-2"),
    ),
    ("gpu", "lstm-h2048-t25"): (
        ("0x1.535161c872f70p-9", "0x1.4bd00da07e627p-1"),
        ("0x1.972e7556f05b9p-9", "0x1.1482b605bea77p+0"),
        ("0x1.972e7556f05b8p-8", "0x1.1482b605bea78p+1"),
    ),
    ("gpu", "gru-h512-t1"): (
        ("0x1.a643302346b88p-12", "0x1.fff07bc3b0a13p-8"),
        ("0x1.fab70690bb43cp-12", "0x1.aa9dbc7868865p-7"),
        ("0x1.fab70690bb43ap-11", "0x1.aa9dbc7868868p-6"),
    ),
    ("gpu", "gru-h2816-t750"): (
        ("0x1.75289bfb6e9bcp-4", "0x1.91179b32be5e8p-1"),
        ("0x1.bfca54c75187bp-4", "0x1.4e3e56aa494ecp+0"),
        ("0x1.bfca54c75187ap-3", "0x1.4e3e56aa494ecp+1"),
    ),
    ("gpu", "lstm-h512-t7"): (
        ("0x1.ff3960e1f5d5bp-12", "0x1.ed542afe3afe9p-5"),
        ("0x1.32bc06edf9e6ap-11", "0x1.9b1b792931297p-4"),
        ("0x1.32bc06edf9e69p-10", "0x1.9b1b792931299p-3"),
    ),
    ("gpu", "lstm-h512-t500"): (
        ("0x1.e229f71540a4dp-8", "0x1.23e320e36ea5bp-2"),
        ("0x1.214c610cc062ep-7", "0x1.e67a8c25b8699p-2"),
        ("0x1.214c610cc062ep-6", "0x1.e67a8c25b8699p-1"),
    ),
    ("gpu", "lstm-h512-l2-t25"): (
        ("0x1.1ce0cc1de604cp-10", "0x1.8b38bc4227234p-3"),
        ("0x1.55da8e8a4738ep-10", "0x1.4959f237209d6p-2"),
        ("0x1.55da8e8a4738dp-9", "0x1.4959f237209d7p-1"),
    ),
    ("gpu", "gru-h1536-l3-t150"): (
        ("0x1.3e50e76cfffc8p-6", "0x1.4fbe545277b31p-1"),
        ("0x1.7dfaaf4f99956p-6", "0x1.17c94644b9154p+0"),
        ("0x1.7dfaaf4f99955p-5", "0x1.17c94644b9154p+1"),
    ),
    ("gpu", "gru-h512-t25d10"): (
        ("0x1.b588b7a6db39ap-11", "0x1.0e31e811823c1p-3"),
        ("0x1.06853afdb6bc2p-10", "0x1.c2532d7283b99p-3"),
        ("0x1.06853afdb6bc2p-9", "0x1.c2532d7283b99p-2"),
    ),
    ("gpu", "lstm-h1024-l2-t30d30"): (
        ("0x1.f7204d7600c21p-9", "0x1.0c8977f5713ebp-1"),
        ("0x1.2de02e7a00747p-8", "0x1.bf8fc7ee67687p-1"),
        ("0x1.2de02e7a00747p-7", "0x1.bf8fc7ee67687p+0"),
    ),
    ("plasticine", "lstm-h512-t25"): (
        ("0x1.dc79123a95274p-17", "0x1.d898fe8766153p+2"),
        ("0x1.9b0ab2e1693c0p-16", "0x1.11e9ea3fd8f23p+3"),
        ("0x1.69f7eb5e884b9p-14", "0x1.370c98190a87ap+3"),
    ),
    ("plasticine", "lstm-h2048-t25"): (
        ("0x1.c25d074213a0cp-14", "0x1.f3ff067d7c82fp+3"),
        ("0x1.b7ee1876ef4aap-13", "0x1.ffdaa2ba3f079p+3"),
        ("0x1.b01ae55e940a1p-11", "0x1.048fc5a9cca39p+4"),
    ),
    ("plasticine", "gru-h512-t1"): (
        ("0x1.e32f0ee144531p-22", "0x1.bf647612f3696p+2"),
        ("0x1.7b07e6b1d8de3p-21", "0x1.1d2a46e88b31cp+3"),
        ("0x1.2cea888e48468p-19", "0x1.6730e9a4cba53p+3"),
    ),
    ("plasticine", "gru-h2816-t750"): (
        ("0x1.576cce5f7403ep-8", "0x1.b3d191231cfbfp+3"),
        ("0x1.520afa2f05a71p-7", "0x1.bac1eb7fa19aep+3"),
        ("0x1.4e019b0ab2e17p-5", "0x1.c01bc0ecefbb7p+3"),
    ),
    ("plasticine", "lstm-h512-t7"): (
        ("0x1.0ad328ed9b34bp-18", "0x1.d898fe8766153p+2"),
        ("0x1.cc5de710f0be2p-18", "0x1.11e9ea3fd8f22p+3"),
        ("0x1.956796f93c7dap-16", "0x1.370c98190a878p+3"),
    ),
    ("plasticine", "lstm-h512-t500"): (
        ("0x1.29cbab649d389p-12", "0x1.d898fe8766152p+2"),
        ("0x1.00e6afcce1c58p-11", "0x1.11e9ea3fd8f23p+3"),
        ("0x1.c475e6362a5e8p-10", "0x1.370c98190a878p+3"),
    ),
    ("plasticine", "lstm-h512-l2-t25"): (
        ("0x1.dc79123a95274p-16", "0x1.d898fe8766153p+2"),
        ("0x1.9b0ab2e1693c0p-15", "0x1.11e9ea3fd8f23p+3"),
        ("0x1.69f7eb5e884b9p-13", "0x1.370c98190a87ap+3"),
    ),
    ("plasticine", "gru-h1536-l3-t150"): (
        ("0x1.e7aa9ea49b556p-11", "0x1.b64d3dccb6bb9p+3"),
        ("0x1.cdd50a88effe3p-10", "0x1.ced1db3fbe031p+3"),
        ("0x1.ba74db742f7ccp-8", "0x1.e31652f5986a6p+3"),
    ),
    ("plasticine", "gru-h512-t25d10"): (
        ("0x1.083dbc23315d7p-16", "0x1.bf647612f3696p+2"),
        ("0x1.9e90a45285330p-16", "0x1.1d2a46e88b31cp+3"),
        ("0x1.4920855b9f0d2p-14", "0x1.6730e9a4cba53p+3"),
    ),
    ("plasticine", "lstm-h1024-l2-t30d30"): (
        ("0x1.33c72ccfc1c9cp-13", "0x1.b6fa8a0aa3e59p+3"),
        ("0x1.1abcefb5042e3p-12", "0x1.dddb1115443e0p+3"),
        ("0x1.07f541e0f5f99p-10", "0x1.ffdaa2ba3f079p+3"),
    ),
}


def test_tables_cover_every_platform_and_task():
    expected = {(p, t.name) for p in available_platforms() for t in TASKS}
    assert set(_STATIC) == expected
    assert set(_SURFACE) == expected


@pytest.mark.parametrize("t", TASKS, ids=lambda t: t.name)
@pytest.mark.parametrize("platform", sorted(available_platforms()))
def test_cost_surface_is_pinned(platform, t):
    engine = ServingEngine(platform)
    prepared = engine.prepare(t.with_timesteps(t.timesteps + 3))
    assert prepared.task != t
    cycles_per_step, power_w, notes = _STATIC[(platform, t.name)]
    for batch_size, (latency_s, tflops) in zip(
        BATCH_SIZES, _SURFACE[(platform, t.name)]
    ):
        if batch_size == 1:
            result = engine.result_for(t)
        else:
            result = engine.serve_batched(t, batch_size)
        assert result.task == t
        assert result.batch_size == batch_size
        assert result.latency_s.hex() == latency_s
        assert result.effective_tflops.hex() == tflops
        assert result.cycles_per_step == cycles_per_step
        assert (None if result.power_w is None else result.power_w.hex()) == power_w
        assert result.notes == notes
    # Every row came from the one compile at the other length.
    assert engine.cache_stats.misses == 1
