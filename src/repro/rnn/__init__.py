"""RNN cells: golden references and loop-based DSL implementations.

* :mod:`repro.rnn.params` — tensor shapes (paper Table 1) and weight
  containers with the concatenated ``[Wx, Wh]`` layout of Figure 5.
* :mod:`repro.rnn.reference` — numpy LSTM/GRU used as functional oracle.
* :mod:`repro.rnn.luts` — sigmoid/tanh lookup-table helpers and error
  bounds.
* :mod:`repro.rnn.lstm_loop` / :mod:`repro.rnn.gru_loop` — the paper's
  loop-based cells written in the Spatial-like DSL, parameterized by the
  design knobs ``hu``, ``ru``, ``rv``: ``declare_*`` gives the data-free
  program costing reads, ``build_*`` binds weights and inputs to it.
"""

from repro.rnn.params import GRUWeights, LSTMWeights, RNNShape
from repro.rnn.reference import (
    gru_sequence,
    gru_step,
    lstm_sequence,
    lstm_step,
    sigmoid,
)
from repro.rnn.lstm_loop import build_lstm_program, declare_lstm_program
from repro.rnn.gru_loop import build_gru_program, declare_gru_program

__all__ = [
    "RNNShape",
    "LSTMWeights",
    "GRUWeights",
    "lstm_step",
    "lstm_sequence",
    "gru_step",
    "gru_sequence",
    "sigmoid",
    "declare_lstm_program",
    "declare_gru_program",
    "build_lstm_program",
    "build_gru_program",
]
