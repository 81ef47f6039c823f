"""The webcam demo: camera frames composited with pulled ad text.

Camera frames trigger ProcessPicture, whose output triggers ComposeDisplay.
ComposeDisplay pulls the current ad line through MakeAd (which pulls the IP
source) and either overlays it onto the frame or withholds the frame when
the ad text is empty. The Display controller forwards every composited
frame to the Screen action.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decls import Specification
from .parser import parse
from .runtime import Runtime, create_runtime
from .scenario import RecordingSink, ScriptedSource
from .values import overlay

WEBCAM_SPEC = """\
; A tiny camera-to-screen pipeline that composites pulled ad text
; onto every captured frame.

(define-source Camera Picture)
(define-source IP String)          ; current ad line
(define-action Screen Picture)

(define-context ProcessPicture Picture
  [when-provided Camera always_publish])

(define-context MakeAd String
  [when-required get IP])

(define-context ComposeDisplay Picture
  [when-provided ProcessPicture get MakeAd maybe_publish])

(define-controller Display
  [when-provided ComposeDisplay do Screen])
"""

DEFAULT_SCENARIO = """\
# Provide the ad text, then capture one frame.
set IP "Ads Inc"
emit Camera picture(640x480,seed=7)
"""


def webcam_spec() -> Specification:
    return parse(WEBCAM_SPEC)


def process_picture(pic, publish):
    publish(pic)


def make_ad(get_ip):
    return get_ip()


def compose_display(pic, get_ad, publish, nopublish):
    ad = get_ad()
    if ad == "":
        nopublish()
    publish(overlay(pic, ad))


def display(pic, show):
    show(pic)


@dataclass
class WebcamApp:
    runtime: Runtime
    camera: ScriptedSource
    ip: ScriptedSource
    screen: RecordingSink


def build_webcam_app(trace=None) -> WebcamApp:
    """Assemble and seal the demo against scripted platform resources."""
    rt = create_runtime(webcam_spec())
    rt.trace = trace
    rt.register("ProcessPicture", process_picture)
    rt.register("MakeAd", make_ad)
    rt.register("ComposeDisplay", compose_display)
    rt.register("Display", display)
    camera, ip = ScriptedSource(), ScriptedSource()
    screen = RecordingSink()
    rt.bind_source("Camera", camera)
    rt.bind_source("IP", ip)
    rt.bind_action("Screen", screen)
    rt.seal()
    return WebcamApp(rt, camera, ip, screen)
