"""Thermal substrate: RC node models, enclosure airflow, runaway handling.

The paper's §V-C reports a thermal design issue: inside the original 1U
cases with the lid on, the centre blades received too little airflow to
evacuate the PSU + SoC heat, and node 7 ran away to 107 °C during the first
HPL runs, tripping its over-temperature shutdown (Fig. 6).  Removing the
lid and increasing the vertical spacing between blades dropped the hottest
node from 71 °C to 39 °C.

* :mod:`repro.thermal.model` — first-order RC thermal model per sensor.
* :mod:`repro.thermal.enclosure` — per-slot airflow → thermal resistance.
* :mod:`repro.thermal.runaway` — trip detection and the mitigation story.
"""
